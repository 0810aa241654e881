package backend

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"multiprefix/internal/core"
)

// Plan is a prepared multiprefix pipeline over one fixed label
// vector: labels are validated and their structure (class count,
// per-chunk touched labels, counting-sort order, spinetree where the
// engine allows) is computed once at build time, then Run and Reduce
// evaluate any number of value vectors against it. For the portable
// backends a warm Plan performs zero steady-state heap allocations.
//
// # Concurrency
//
// A Plan may be shared between goroutines: every entry point — Run,
// Reduce, RunBatch, ReduceBatch, their Call variants, RunEach,
// ReduceEach and Close — serializes on an internal lock, so
// concurrent calls execute one at a time in some order. This holds
// for every registered backend, including the simulated vector and
// PRAM machines. The guarantee is mutual exclusion, not result
// lifetime: Run and Reduce return slices that alias plan-owned
// storage and are overwritten by the next call on the same Plan, so
// goroutines sharing a Plan must use the batch entry points, which
// write into caller-owned destinations and are therefore safe
// end-to-end (a batch of one is the degenerate form). This is exactly
// how the service layer drives one cached Plan from many requests.
//
// A Plan is also a stateful, versioned resource: Bind installs a
// resident value vector and Update/QueryPrefix/ReduceLabel maintain
// and query it incrementally — deltas on one Fenwick tree per label
// class for invertible fast sums, dirty-set + full re-run otherwise
// (see incremental.go).
// The stateful entry points hold the same lock, scalar results are
// returned by value and Snapshot copies into caller storage, so
// mixed Run/Update/Query traffic never observes torn state.
type Plan[T any] struct {
	// mu serializes every public entry point: one evaluation (or
	// Close) at a time per Plan.
	mu sync.Mutex

	backend string
	// ex is the engine the plan runs (exec.go); an auto plan's Promote
	// may swap it for a serial or chunked one.
	//mp:guarded-by mu
	ex       executor[T]
	fallback bool // auto: degrade to the serial pass on internal failure
	op       core.Op[T]
	// cfg is swapped by per-call overrides and restored on return.
	//mp:guarded-by mu
	cfg     core.Config
	n, m    int
	classes int
	// labels is the plan's one copy of its label vector, 4 bytes a
	// label: every engine and the service cache read it from here.
	labels []int32

	// Run/Reduce result storage, allocated on first use (results) and
	// overwritten by every evaluation; red doubles as the reduction
	// scratch of a prefix batch (batchRed). The batch entry points
	// write to caller storage, so a plan driven only through them never
	// holds multi.
	//mp:guarded-by mu
	multi []T
	//mp:guarded-by mu
	red []T
	// oneDst and oneSrc are the slots of a one-vector batch (one).
	//mp:guarded-by mu
	oneDst, oneSrc [1][]T

	// trial is an auto plan's trial record; nil when the plan ran none.
	// A library auto plan sets it before the plan is returned; a
	// RulePlan plan (deferred) sets it at most once, in Promote.
	//mp:guarded-by mu
	trial *AutoTrial
	//mp:guarded-by mu
	deferred bool

	// incremental (stateful) extension — see incremental.go. Built
	// lazily at the first Bind; serialized by mu like every evaluation.
	//mp:guarded-by mu
	bound bool
	//mp:guarded-by mu
	vals []T // resident value vector (plan-owned copy)
	//mp:guarded-by mu
	snapMulti []T // copy-on-refresh full multiprefix over vals
	//mp:guarded-by mu
	snapRed []T // copy-on-refresh reductions over vals
	//mp:guarded-by mu
	snapClean bool // snapshot matches vals exactly
	//mp:guarded-by mu
	imode incMode // maintenance tier (operator + element type)
	//mp:guarded-by mu
	iperm []int32 // counting-sort permutation (a one-shard sorted plan's own: sortedIndex)
	//mp:guarded-by mu
	istart []int32 // per-label run bounds, len m+1 (likewise)
	//mp:guarded-by mu
	iloc []classPos // element i's label class and offset in its run
	//mp:guarded-by mu
	ftree []T // one Fenwick tree per class, class c's at istart[c]:istart[c+1]
	//mp:guarded-by mu
	fstale bool // tree stopped tracking vals (update burst)
	//mp:guarded-by mu
	fdrift bool // float64 left the exact envelope (sticky until Bind)
	//mp:guarded-by mu
	fbound float64 // float64 exact-envelope bound (2^52 / largest class)
	//mp:guarded-by mu
	burst int // update-vs-rerun crossover (core.AutoUpdateBurst)
	//mp:guarded-by mu
	pending int // tree deltas applied since the last query/rebuild
	//mp:guarded-by mu
	inc IncStats
	// version counts Bind/Update mutations; atomic so Version() is
	// lock-free (the service pins it without serializing on mu).
	version atomic.Uint64

	//mp:guarded-by mu
	closed bool
}

// Plan builds a reusable pipeline for this backend over the given
// labels. The label vector is copied, narrowed to int32; later mutation
// of the caller's slice does not affect the plan. A label space beyond
// int32 (m > math.MaxInt32) is refused with ErrBadInput before anything
// m-sized is allocated. An auto plan chooses its engine by trial here,
// at build time (see trialPlan).
func (b impl[T]) Plan(op core.Op[T], labels []int, m int, cfg core.Config) (*Plan[T], error) {
	if err := checkOp(op); err != nil {
		return nil, err
	}
	set, err := NewLabelSet(labels, m)
	if err != nil {
		return nil, err
	}
	return b.planSet(op, set, cfg)
}

// PlanSet is Open(name) then Plan over a label set NewLabelSet
// prepared: the plan takes the set's labels as its own and makes no
// pass over them. An auto plan runs its build-time trial, as Plan's
// does.
func PlanSet[T any](name string, op core.Op[T], set LabelSet, cfg core.Config) (*Plan[T], error) {
	be, err := Open[T](name)
	if err != nil {
		return nil, err
	}
	if err := checkOp(op); err != nil {
		return nil, err
	}
	return be.(impl[T]).planSet(op, set, cfg)
}

// planSet builds the backend's plan over a prepared label set.
func (b impl[T]) planSet(op core.Op[T], set LabelSet, cfg core.Config) (*Plan[T], error) {
	if b.k == kindAuto && runsTrial(len(set.labels), set.m, cfg) {
		return trialPlan(op, set, cfg)
	}
	return newPlan(b.k, b.name, op, set, cfg)
}

// RulePlan builds an auto plan like PlanSet("auto"), except that it
// runs no trial at build time: it starts on the one-shot rule's engine
// (core.AutoChoice) and leaves the trial to Promote, on the live plan.
// A cache that may evict a plan before its second use builds this way,
// so a plan pays for the trial only once it has proved hot.
func RulePlan[T any](op core.Op[T], set LabelSet, cfg core.Config) (*Plan[T], error) {
	if err := checkOp(op); err != nil {
		return nil, err
	}
	p, err := newPlan(kindAuto, "auto", op, set, cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.deferred = true
	p.mu.Unlock()
	return p, nil
}

// checkOp refuses an operator without a Combine.
func checkOp[T any](op core.Op[T]) error {
	if !op.Valid() {
		return fmt.Errorf("%w: operator has nil Combine", core.ErrBadInput)
	}
	return nil
}

// newPlan builds a plan of kind k, registered as name, over a prepared
// label set, whose labels the plan keeps as its own. An auto kind
// applies the one-shot rule. The plan is unpublished until it returns.
//
//mp:locked
func newPlan[T any](k kind, name string, op core.Op[T], set LabelSet, cfg core.Config) (*Plan[T], error) {
	p := &Plan[T]{
		backend: name,
		op:      op,
		cfg:     cfg,
		n:       len(set.labels),
		m:       set.m,
		classes: set.classes,
		labels:  set.labels,
	}
	if k == kindAuto {
		// No trial here (see trialPlan and Promote): the one-shot rule
		// decides. The fallback-to-serial degradation of the one-shot
		// Auto engine is preserved per run.
		p.fallback = true
		k = kindSerial
		if core.AutoPlanChoice(p.n, p.m, cfg) == "chunked" {
			k = kindChunked
		}
	}
	ex, err := newExec(p, k)
	if err != nil {
		return nil, err
	}
	p.ex = ex
	return p, nil
}

// Backend reports the registry name the plan was opened under.
func (p *Plan[T]) Backend() string { return p.backend }

// N reports the element count the plan was built for.
func (p *Plan[T]) N() int { return p.n }

// M reports the label-space size.
func (p *Plan[T]) M() int { return p.m }

// Classes reports how many distinct labels actually occur — plan-time
// metadata for capacity planning.
func (p *Plan[T]) Classes() int { return p.classes }

// Labels returns the plan's label vector, fixed at build time. The
// slice is the plan's own storage: callers must not modify it.
func (p *Plan[T]) Labels() []int32 { return p.labels }

// Bytes reports the heap bytes the plan holds: its labels, the
// Run/Reduce result storage once used, what its executor holds (the
// sorted family's index and carries, the chunk runner's buckets and
// lists, the study engines' pooled arena), and the stateful tier once
// bound. It sums backing-array capacities; the Plan struct, its
// closures and its worker team's goroutines (a few KB) are not counted,
// nor is the simulated vector machine's memory.
func (p *Plan[T]) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := core.SliceBytes(p.labels) + core.SliceBytes(p.multi) + core.SliceBytes(p.red) + p.ex.bytes() +
		core.SliceBytes(p.vals) + core.SliceBytes(p.snapMulti) + core.SliceBytes(p.snapRed) +
		core.SliceBytes(p.iloc) + core.SliceBytes(p.ftree)
	if _, _, shared := p.sortedIndex(); !shared {
		n += core.SliceBytes(p.iperm) + core.SliceBytes(p.istart)
	}
	return n
}

// Close releases the plan's worker team promptly. A closed plan
// rejects further runs. Close is optional: a dropped plan's team is
// reclaimed by a GC cleanup. Close waits for an in-flight evaluation
// to finish.
func (p *Plan[T]) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		p.ex.close()
	}
}

//mp:locked
func (p *Plan[T]) checkRun(values []T) error {
	if p.closed {
		return fmt.Errorf("%w: Run on a closed Plan", core.ErrBadInput)
	}
	if len(values) != p.n {
		return fmt.Errorf("%w: plan built for %d values, got %d", core.ErrBadInput, p.n, len(values))
	}
	return nil
}

// terminalErr reports whether err must pass through instead of
// degrading to serial: invalid input and cancellation, exactly as the
// one-shot Auto/Fallback machinery classifies them, and a pinned
// mutation's version conflict.
func terminalErr(err error) bool {
	var vc *VersionConflictError
	return errors.Is(err, core.ErrBadInput) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.As(err, &vc)
}

// Terminal reports whether err must not be retried on another
// backend: invalid input (a retry computes the same rejection),
// cancellation (a retry defeats the cancellation) and a version
// conflict (a retry meets the same version). The service
// layer's degradation ladder uses the same classification as the
// in-plan auto fallback.
func Terminal(err error) bool { return terminalErr(err) }

// Call carries the per-call dynamic knobs of one evaluation on a
// shared Plan. A Plan bakes its Config at build time; a long-lived
// plan (the service layer's cache) instead needs the cancellation
// context and fault hook of the request it is currently serving. A
// nil field inherits the plan Config's value. The overrides are
// honored by every portable backend; the simulated vector machine
// binds its config at plan-build time, so there they only cover the
// serial degradation path.
type Call struct {
	// Ctx overrides Config.Ctx for this call: per-request deadlines
	// and cancellation on a shared plan.
	Ctx context.Context
	// Hook overrides Config.FaultHook for this call — per-request
	// fault injection (the service's chaos mode).
	Hook core.FaultHook
	// Pin, when nonzero, makes a mutation (BindCall, UpdateCall)
	// conditional: it applies only if the plan is at exactly this
	// version (see Plan.Version) when it takes the plan lock, and
	// otherwise fails with a *VersionConflictError and changes
	// nothing. Evaluations and queries ignore it.
	Pin uint64
}

// override installs the call's knobs into the plan config and returns
// the previous config for restoring. Callers hold p.mu, so the swap
// is invisible to other goroutines; team worker bodies read p.cfg
// only inside rounds bracketed by the call.
//
//mp:locked
func (p *Plan[T]) override(c Call) core.Config {
	old := p.cfg
	if c.Ctx != nil {
		p.cfg.Ctx = c.Ctx
	}
	if c.Hook != nil {
		p.cfg.FaultHook = c.Hook
	}
	return old
}

// Run evaluates the full multiprefix over values. The Result aliases
// plan-owned storage, valid until the next call on this plan.
//
//mp:hotpath
func (p *Plan[T]) Run(values []T) (core.Result[T], error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eval(values, true)
}

// RunCall is Run under per-call overrides.
//
//mp:hotpath
func (p *Plan[T]) RunCall(c Call, values []T) (core.Result[T], error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.eval(values, true)
}

// eval is one evaluation on the plan's executor: the prefixes when
// withMulti, the reductions always, into the plan's result storage or
// the executor's own. An auto plan's non-terminal failure reruns on the
// serial pass. Callers hold p.mu. Every engine polls p.cfg.Ctx at
// cancel-stride granularity.
//
//mp:locked
//mp:polls
func (p *Plan[T]) eval(values []T, withMulti bool) (core.Result[T], error) {
	if err := p.checkRun(values); err != nil {
		return core.Result[T]{}, err
	}
	res, err := p.ex.run(p, values, withMulti)
	switch {
	case err == nil:
		return res, nil
	case p.degrades(err):
		return p.runOne(serialExec[T]{}, values, withMulti)
	}
	return core.Result[T]{}, err
}

// degrades reports whether a failed evaluation reruns on the serial
// pass: an auto plan's non-terminal failure on an engine other than
// serial.
//
//mp:locked
func (p *Plan[T]) degrades(err error) bool {
	_, serial := p.ex.(serialExec[T])
	return p.fallback && !serial && !terminalErr(err)
}

// Reduce evaluates the reductions-only multireduce over values. The
// slice aliases plan-owned storage.
//
//mp:hotpath
func (p *Plan[T]) Reduce(values []T) ([]T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, err := p.eval(values, false)
	return res.Reductions, err
}

// ReduceCall is Reduce under per-call overrides.
//
//mp:hotpath
func (p *Plan[T]) ReduceCall(c Call, values []T) ([]T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	res, err := p.eval(values, false)
	return res.Reductions, err
}

// results returns the plan's Run/Reduce storage, allocating it on
// first use: the reductions always, the prefixes when withMulti.
//
//mp:locked
func (p *Plan[T]) results(withMulti bool) core.Result[T] {
	if len(p.red) != p.m {
		p.red = make([]T, p.m)
	}
	if !withMulti {
		return core.Result[T]{Reductions: p.red}
	}
	if len(p.multi) != p.n {
		p.multi = make([]T, p.n)
	}
	return core.Result[T]{Multi: p.multi, Reductions: p.red}
}

// batchRed returns a batch's reduction scratch: the plan's red,
// allocated on first use, for a prefix batch; nil for a reductions
// batch, which writes its reductions to the caller's storage.
//
//mp:locked
func (p *Plan[T]) batchRed(withMulti bool) []T {
	if !withMulti {
		return nil
	}
	return p.results(false).Reductions
}

// runOne is a run as a one-vector batch of e's into the plan's result
// storage: a serial, sorted or vector plan's Run and Reduce, and on the
// serial executor an auto plan's degradation of a failed run.
//
//mp:locked
func (p *Plan[T]) runOne(e executor[T], values []T, withMulti bool) (core.Result[T], error) {
	res := p.results(withMulti)
	dst := res.Reductions
	if withMulti {
		dst = res.Multi
	}
	dsts, srcs := p.one(dst, values)
	err := e.batch(p, dsts, srcs, withMulti)
	p.clearOne()
	return res, err
}

// one returns dst and src as a one-vector batch in the plan's own
// one-element slices: stack arrays passed through the executor
// interface would escape to the heap. No executor's batch uses the
// slots itself. The caller empties them with clearOne once the batch
// returns, so the plan keeps no reference to its vectors.
//
//mp:locked
func (p *Plan[T]) one(dst, src []T) (dsts, srcs [][]T) {
	p.oneDst[0], p.oneSrc[0] = dst, src
	return p.oneDst[:], p.oneSrc[:]
}

//mp:locked
func (p *Plan[T]) clearOne() { p.oneDst[0], p.oneSrc[0] = nil, nil }

// recoverPlanPanic converts a panic on the calling goroutine into the
// typed engine-panic error, matching the one-shot engines' shield.
func recoverPlanPanic(engine string, err *error) {
	if rec := recover(); rec != nil {
		*err = &core.EnginePanicError{Engine: engine, Worker: -1, Value: rec, Stack: debug.Stack()}
	}
}

// serialPass is one planned serial pass over values into multi (nil
// for reduce-only) and red: the one-pass bucket algorithm with no
// per-run validation. Like the one-shot serial engine it never observes
// fault hooks; with a context set it runs in CancelStride segments,
// polling at each boundary.
//
//mp:locked
//mp:polls
func (p *Plan[T]) serialPass(values, multi, red []T) error {
	core.FillIdentity(p.op, red)
	return core.SerialSegments(p.op, values, p.labels, multi, red, p.cfg.Ctx)
}
