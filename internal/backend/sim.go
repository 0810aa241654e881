package backend

import (
	"fmt"
	"math"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
	"multiprefix/internal/pram"
	"multiprefix/internal/vecmp"
	"multiprefix/internal/vector"
)

// This file adapts the two simulated machines to the Backend
// interface. Both are type-restricted — the vector machine's
// registers hold int64/float64/int32, the PRAM program is hardwired
// to multiprefix-PLUS over int64 — so the adapters dispatch on the
// concrete element type and reject everything else with a wrapped
// core.ErrBadInput.

// errUnsupported reports a capability the named backend lacks.
func errUnsupported(name, what string) error {
	return fmt.Errorf("%w: backend %q %s", core.ErrBadInput, name, what)
}

func errElemType[T any](name string) error {
	var zero []T
	return errUnsupported(name, fmt.Sprintf("does not support element type %T", zero))
}

// labels32 narrows a validated label vector to the vector machine's
// int32 label space.
func labels32(labels []int, m int) ([]int32, error) {
	if m > math.MaxInt32 {
		return nil, fmt.Errorf("%w: m=%d exceeds the vector backend's int32 label space", core.ErrBadInput, m)
	}
	out := make([]int32, len(labels))
	for i, l := range labels {
		out[i] = int32(l)
	}
	return out, nil
}

// vcfg maps the shared Config onto the vector machine's knobs. The
// spine test defaults to the exact marker variant — the paper's
// rowsum != identity shortcut miscomputes when identity-valued
// elements land on the spine (see core.SpineTestNonzero) and the
// registry promises parity with the serial reference — but a caller
// that explicitly asks for the paper's test gets it.
func vcfg(cfg core.Config) vecmp.Config {
	return vecmp.Config{
		Ctx:             cfg.Ctx,
		RowLength:       cfg.RowLength,
		MarkerSpineTest: cfg.SpineTest == core.SpineTestMarker,
	}
}

// trivialResult handles n == 0 uniformly for the simulated machines
// (whose grids assume at least one element): empty Multi, identity
// reductions.
func trivialResult[T any](op core.Op[T], m int, withMulti bool) core.Result[T] {
	res := core.Result[T]{Reductions: make([]T, m)}
	core.FillIdentity(op, res.Reductions)
	if withMulti {
		res.Multi = []T{}
	}
	return res
}

func vecCompute[T any](name string, op core.Op[T], values []T, labels []int, m int, cfg core.Config) (core.Result[T], error) {
	if err := core.ValidatePlan(op, labels, m); err != nil {
		return core.Result[T]{}, err
	}
	if len(values) != len(labels) {
		return core.Result[T]{}, fmt.Errorf("%w: len(values)=%d, len(labels)=%d", core.ErrBadInput, len(values), len(labels))
	}
	if len(values) == 0 {
		return trivialResult(op, m, true), nil
	}
	switch vs := any(values).(type) {
	case []int64:
		return vecRun[int64, T](name, op, vs, labels, m, cfg, true)
	case []float64:
		return vecRun[float64, T](name, op, vs, labels, m, cfg, true)
	case []int32:
		return vecRun[int32, T](name, op, vs, labels, m, cfg, true)
	}
	return core.Result[T]{}, errElemType[T](name)
}

func vecReduce[T any](name string, op core.Op[T], values []T, labels []int, m int, cfg core.Config) ([]T, error) {
	res, err := func() (core.Result[T], error) {
		if err := core.ValidatePlan(op, labels, m); err != nil {
			return core.Result[T]{}, err
		}
		if len(values) != len(labels) {
			return core.Result[T]{}, fmt.Errorf("%w: len(values)=%d, len(labels)=%d", core.ErrBadInput, len(values), len(labels))
		}
		if len(values) == 0 {
			return trivialResult(op, m, false), nil
		}
		switch vs := any(values).(type) {
		case []int64:
			return vecRun[int64, T](name, op, vs, labels, m, cfg, false)
		case []float64:
			return vecRun[float64, T](name, op, vs, labels, m, cfg, false)
		case []int32:
			return vecRun[int32, T](name, op, vs, labels, m, cfg, false)
		}
		return core.Result[T]{}, errElemType[T](name)
	}()
	if err != nil {
		return nil, err
	}
	return res.Reductions, nil
}

// vecRun executes one simulated vectorized run at the machine element
// type E (== T, proven by the caller's type switch).
func vecRun[E vector.Elem, T any](name string, op core.Op[T], values []E, labels []int, m int, cfg core.Config, withMulti bool) (core.Result[T], error) {
	eop, ok := any(op).(core.Op[E])
	if !ok {
		return core.Result[T]{}, errElemType[T](name)
	}
	l32, err := labels32(labels, m)
	if err != nil {
		return core.Result[T]{}, err
	}
	mach := vector.NewDefault()
	var res *vecmp.Result[E]
	if withMulti {
		res, err = vecmp.Multiprefix(mach, eop, values, l32, m, vcfg(cfg))
	} else {
		res, err = vecmp.Multireduce(mach, eop, values, l32, m, vcfg(cfg))
	}
	if err != nil {
		return core.Result[T]{}, err
	}
	out := core.Result[T]{Reductions: any(res.Reductions).([]T)}
	if withMulti {
		out.Multi = any(res.Multi).([]T)
	}
	return out, nil
}

// pramCheck validates the PRAM backend's restrictions: int64 elements
// and the multiprefix-PLUS operator (the §3 program computes PLUS;
// any other Combine would be silently ignored).
func pramCheck[T any](name string, op core.Op[T]) error {
	if _, ok := any(make([]T, 0)).([]int64); !ok {
		return errElemType[T](name)
	}
	if op.Name != core.AddInt64.Name {
		return errUnsupported(name, fmt.Sprintf("supports only the multiprefix-PLUS operator, not %q", op.Name))
	}
	return nil
}

func pramCompute[T any](name string, op core.Op[T], values []T, labels []int, m int, cfg core.Config) (core.Result[T], error) {
	if err := core.ValidatePlan(op, labels, m); err != nil {
		return core.Result[T]{}, err
	}
	if len(values) != len(labels) {
		return core.Result[T]{}, fmt.Errorf("%w: len(values)=%d, len(labels)=%d", core.ErrBadInput, len(values), len(labels))
	}
	if err := pramCheck(name, op); err != nil {
		return core.Result[T]{}, err
	}
	if len(values) == 0 {
		return trivialResult(op, m, true), nil
	}
	res, err := pram.RunMultiprefix(par.ClampWorkers(cfg.Workers), any(values).([]int64), labels, m, cfg.RowLength, 1)
	if err != nil {
		return core.Result[T]{}, err
	}
	return core.Result[T]{Multi: any(res.Multi).([]T), Reductions: any(res.Reductions).([]T)}, nil
}

func pramReduce[T any](name string, op core.Op[T], values []T, labels []int, m int, cfg core.Config) ([]T, error) {
	if err := core.ValidatePlan(op, labels, m); err != nil {
		return nil, err
	}
	if len(values) != len(labels) {
		return nil, fmt.Errorf("%w: len(values)=%d, len(labels)=%d", core.ErrBadInput, len(values), len(labels))
	}
	if err := pramCheck(name, op); err != nil {
		return nil, err
	}
	if len(values) == 0 {
		red := make([]T, m)
		core.FillIdentity(op, red)
		return red, nil
	}
	res, err := pram.RunMultireduce(par.ClampWorkers(cfg.Workers), any(values).([]int64), labels, m, cfg.RowLength, 1)
	if err != nil {
		return nil, err
	}
	return any(res.Reductions).([]T), nil
}
