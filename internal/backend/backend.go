// Package backend is the unified execution layer: every multiprefix
// implementation in the repository — the portable core engines, the
// simulated CRAY Y-MP vectorized port and the simulated PRAM — behind
// one named registry and one interface. Workload packages (hist,
// intsort, sparse, dpl) and the binaries select an implementation by
// name instead of hard-coding an engine, and repeated same-label
// traffic goes through Plan, which validates and precomputes the
// label structure once and evaluates many value vectors against it
// with zero steady-state allocations.
package backend

import (
	"fmt"
	"strings"

	"multiprefix/internal/core"
)

// kind enumerates the registered implementations.
type kind uint8

const (
	kindAuto kind = iota
	kindSerial
	kindSorted
	kindSharded
	kindSpinetree
	kindChunked
	kindParallel
	kindVector
	kindPram
)

// Backend is one named multiprefix execution strategy. Compute and
// Reduce are the one-shot entry points; Plan amortizes validation and
// label-structure setup across repeated Run calls on the same labels.
// Engine adapts the backend to the core.Engine signature the derived
// operations (SegmentedScan, FetchOp, ...) accept.
//
// The "vector" backend supports int64, float64 and int32 elements
// (the simulated machine's register types); "pram" supports only
// int64 with the multiprefix-PLUS operator (the paper's §3 program is
// hardwired to PLUS). Both return an error wrapping core.ErrBadInput
// for anything else. Every other backend is fully generic.
type Backend[T any] interface {
	// Name reports the registry name.
	Name() string
	// Compute runs the full multiprefix operation once.
	Compute(op core.Op[T], values []T, labels []int, m int, cfg core.Config) (core.Result[T], error)
	// Reduce runs the reductions-only multireduce once.
	Reduce(op core.Op[T], values []T, labels []int, m int, cfg core.Config) ([]T, error)
	// Plan validates labels once and builds a reusable pipeline for
	// repeated evaluation against many value vectors.
	Plan(op core.Op[T], labels []int, m int, cfg core.Config) (*Plan[T], error)
	// Engine adapts the backend to the core.Engine signature with a
	// fixed Config.
	Engine(cfg core.Config) core.Engine[T]
}

// registry lists the implementations in presentation order: the
// adaptive default first, then the portable engines, then the
// simulated machines.
var registry = []struct {
	name string
	k    kind
}{
	{"auto", kindAuto},
	{"serial", kindSerial},
	{"sorted", kindSorted},
	{"sharded", kindSharded},
	{"spinetree", kindSpinetree},
	{"chunked", kindChunked},
	{"parallel", kindParallel},
	{"vector", kindVector},
	{"pram", kindPram},
}

// Names lists the registered backend names in registry order
// ("auto" first). The returned slice is a fresh copy.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// UnknownBackendError is returned by Open for a name not in the
// registry. It wraps core.ErrBadInput so callers that classify errors
// by errors.Is(err, ErrBadInput) treat a bad name like any other
// invalid input.
type UnknownBackendError struct {
	// Name is the name that failed to resolve.
	Name string
	// Known lists the registered names.
	Known []string
}

func (e *UnknownBackendError) Error() string {
	return fmt.Sprintf("multiprefix: unknown backend %q (known: %s)", e.Name, strings.Join(e.Known, ", "))
}

// Unwrap classifies the error as invalid input.
func (e *UnknownBackendError) Unwrap() error { return core.ErrBadInput }

// Open resolves a backend by registry name for element type T.
// Unknown names return *UnknownBackendError.
func Open[T any](name string) (Backend[T], error) {
	for _, r := range registry {
		if r.name == name {
			return impl[T]{k: r.k, name: r.name}, nil
		}
	}
	return nil, &UnknownBackendError{Name: name, Known: Names()}
}

// Compute is a one-shot convenience: Open(name) then Compute.
func Compute[T any](name string, op core.Op[T], values []T, labels []int, m int, cfg core.Config) (core.Result[T], error) {
	b, err := Open[T](name)
	if err != nil {
		return core.Result[T]{}, err
	}
	return b.Compute(op, values, labels, m, cfg)
}

// Reduce is a one-shot convenience: Open(name) then Reduce.
func Reduce[T any](name string, op core.Op[T], values []T, labels []int, m int, cfg core.Config) ([]T, error) {
	b, err := Open[T](name)
	if err != nil {
		return nil, err
	}
	return b.Reduce(op, values, labels, m, cfg)
}

// impl is the single Backend implementation: behavior switches on the
// registered kind. Go interfaces cannot carry generic methods, so the
// registry stores kinds and Open instantiates impl at the caller's
// element type.
type impl[T any] struct {
	k    kind
	name string
}

func (b impl[T]) Name() string { return b.name }

func (b impl[T]) Compute(op core.Op[T], values []T, labels []int, m int, cfg core.Config) (core.Result[T], error) {
	switch b.k {
	case kindSerial:
		if err := ctxDone(cfg); err != nil {
			return core.Result[T]{}, err
		}
		return core.Serial(op, values, labels, m)
	case kindSorted:
		return core.Sorted(op, values, labels, m, cfg)
	case kindSharded:
		return shardedCompute(b, op, values, labels, m, cfg)
	case kindSpinetree:
		return core.Spinetree(op, values, labels, m, cfg)
	case kindChunked:
		return core.Chunked(op, values, labels, m, cfg)
	case kindParallel:
		return core.Parallel(op, values, labels, m, cfg)
	case kindVector:
		return vecCompute(b.name, op, values, labels, m, cfg)
	case kindPram:
		return pramCompute(b.name, op, values, labels, m, cfg)
	default:
		return core.Auto(op, values, labels, m, cfg)
	}
}

func (b impl[T]) Reduce(op core.Op[T], values []T, labels []int, m int, cfg core.Config) ([]T, error) {
	switch b.k {
	case kindSerial:
		if err := ctxDone(cfg); err != nil {
			return nil, err
		}
		return core.SerialReduce(op, values, labels, m)
	case kindSorted:
		return core.SortedReduce(op, values, labels, m, cfg)
	case kindSharded:
		return shardedReduce(b, op, values, labels, m, cfg)
	case kindSpinetree:
		return core.SpinetreeReduce(op, values, labels, m, cfg)
	case kindChunked:
		return core.ChunkedReduce(op, values, labels, m, cfg)
	case kindParallel:
		return core.ParallelReduce(op, values, labels, m, cfg)
	case kindVector:
		return vecReduce(b.name, op, values, labels, m, cfg)
	case kindPram:
		return pramReduce(b.name, op, values, labels, m, cfg)
	default:
		return core.AutoReduce(op, values, labels, m, cfg)
	}
}

func (b impl[T]) Engine(cfg core.Config) core.Engine[T] {
	return func(op core.Op[T], values []T, labels []int, m int) (core.Result[T], error) {
		return b.Compute(op, values, labels, m, cfg)
	}
}

// shardedCompute is the one-shot sharded entry: the engine's structures
// are inherently planned (per-shard counting sorts, carry buffers, the
// team), so a one-shot run builds the plan, evaluates once and closes
// it. The result aliases plan storage, which stays valid after Close.
func shardedCompute[T any](b impl[T], op core.Op[T], values []T, labels []int, m int, cfg core.Config) (core.Result[T], error) {
	p, err := b.Plan(op, labels, m, cfg)
	if err != nil {
		return core.Result[T]{}, err
	}
	defer p.Close()
	return p.Run(values)
}

// shardedReduce is the reductions-only one-shot sharded entry.
func shardedReduce[T any](b impl[T], op core.Op[T], values []T, labels []int, m int, cfg core.Config) ([]T, error) {
	p, err := b.Plan(op, labels, m, cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return p.Reduce(values)
}

// ctxDone reports a pre-cancelled cfg.Ctx, so the serial backend
// honors cancellation at entry like every other backend.
//
//mp:polls
func ctxDone(cfg core.Config) error {
	if cfg.Ctx == nil {
		return nil
	}
	return cfg.Ctx.Err()
}
