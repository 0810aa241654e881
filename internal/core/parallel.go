package core

import (
	"context"
	"sync"
	"sync/atomic"

	"multiprefix/internal/par"
)

// Parallel computes the multiprefix operation with the paper's
// four-phase algorithm executed by a pool of goroutines in
// barrier-synchronous steps — the closest Go analogue of the
// p = sqrt(n) processor PRAM execution.
//
// The CRCW-ARB arbitrary concurrent write of the SPINETREE phase is
// modeled with atomic stores: when several goroutines store different
// element indices into the same bucket's spine slot, the one whose
// store lands last wins, which is a legal ARB outcome. Every read of a
// concurrently-written slot happens on the far side of a barrier, so
// the implementation is race-detector clean. All other phases write
// distinct addresses within each step (Theorems 1–2 of the paper), so
// they need no synchronization beyond the barriers.
//
// Each pardo step in the paper touches one row or column (sqrt(n)
// elements); running one goroutine per element would drown in barrier
// costs, so each step's elements are partitioned across cfg.Workers
// goroutines instead — the standard processor-virtualization argument
// (each worker simulates sqrt(n)/W virtual processors per step).
//
// The execution is hardened: a panic in Op.Combine (or injected via
// cfg.FaultHook) inside any worker is recovered into a typed
// *EnginePanicError, the panicking worker leaves the barrier so its
// siblings drain instead of deadlocking, and the engine returns the
// error with no goroutine leaked. cfg.Ctx, when set, cancels the run
// at the next barrier boundary.
func Parallel[T any](op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	a, err := newArena(op, labels, m, cfg)
	if err != nil {
		return Result[T]{}, err
	}
	multi := make([]T, len(values))
	run := newParRunner(a, op, values, labels, cfg)
	run.multi = multi
	phase := PhaseSpinetree
	defer recoverEnginePanic("parallel", &phase, &err)
	run.spinetree()
	run.rowsums()
	run.spinesums()
	if err := run.failure(); err != nil {
		return Result[T]{}, err
	}
	phase = PhaseReduce
	red := a.reductions(op, run.hook)
	phase = PhaseMultisums
	run.multisums()
	if err := run.failure(); err != nil {
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// ParallelReduce is the multireduce counterpart of Parallel, hardened
// the same way.
func ParallelReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) (red []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	a, err := newArena(op, labels, m, cfg)
	if err != nil {
		return nil, err
	}
	run := newParRunner(a, op, values, labels, cfg)
	phase := PhaseSpinetree
	defer recoverEnginePanic("parallel", &phase, &err)
	run.spinetree()
	run.rowsums()
	run.spinesums()
	if err := run.failure(); err != nil {
		return nil, err
	}
	phase = PhaseReduce
	return a.reductions(op, run.hook), nil
}

// arbLockStripes is the stripe count for the MutexArb ablation.
const arbLockStripes = 64

type parRunner[T any] struct {
	a      *arena[T]
	op     Op[T]
	values []T
	// The run's labels: one-shot and pooled calls set labels, a plan's
	// int32 copy sets labels32 (see resetParRunner).
	labels   []int
	labels32 []int32
	multi    []T
	workers  int
	test     SpineTest
	fast     FastOp
	locks    []sync.Mutex // nil => atomic-store arbitration
	ctx      context.Context
	hook     FaultHook

	// Failure channel between workers: the first panic or cancellation
	// sets stop; every worker polls it at step boundaries and drains.
	stop   atomic.Bool
	failMu sync.Mutex
	err    error // first failure, under failMu

	// Prebound team-round bodies (see teamMain/teamMulti), created once
	// per runner so the pooled path allocates no closures per call.
	mainBody  func(w int, bar *par.Barrier)
	multiBody func(w int, bar *par.Barrier)
}

func newParRunner[T any](a *arena[T], op Op[T], values []T, labels []int, cfg Config) *parRunner[T] {
	workers := parWorkers(cfg.Workers, a.grid.P)
	r := &parRunner[T]{
		a: a, op: op, values: values, labels: labels,
		workers: workers, test: cfg.SpineTest, ctx: cfg.Ctx, hook: cfg.FaultHook,
		fast: op.fastKind(cfg.FaultHook),
	}
	if cfg.MutexArb {
		r.locks = make([]sync.Mutex, arbLockStripes)
	}
	return r
}

// fail records the run's first failure and signals every worker to
// drain at its next step boundary.
func (r *parRunner[T]) fail(err error) {
	r.failMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.failMu.Unlock()
	r.stop.Store(true)
}

// failure returns the first recorded failure, if any.
func (r *parRunner[T]) failure() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.err
}

// launch runs body on every worker and waits. body receives the worker
// id and a barrier shared by exactly the workers. A panic inside body
// is recovered into an *EnginePanicError and the panicking worker
// leaves the barrier (par.Barrier.Drop), so sibling workers complete
// their phases with the shrunken party count instead of deadlocking.
func (r *parRunner[T]) launch(phase string, body func(w int, bar *par.Barrier)) {
	if r.stop.Load() {
		return
	}
	guarded := func(w int, bar *par.Barrier) {
		defer func() {
			if rec := recover(); rec != nil {
				r.fail(newEnginePanic("parallel", phase, w, rec))
				bar.Drop()
			}
		}()
		body(w, bar)
	}
	if r.workers == 1 {
		guarded(0, par.NewBarrier(1))
		return
	}
	bar := par.NewBarrier(r.workers)
	var wg sync.WaitGroup
	wg.Add(r.workers)
	for w := 0; w < r.workers; w++ {
		go func(w int) {
			defer wg.Done()
			guarded(w, bar)
		}(w)
	}
	wg.Wait()
}

// bail polls for failure and cancellation at a step boundary. A true
// return means the run is over: bail has already dropped the barrier
// and the worker must return immediately. Worker 0 is the one that
// polls the context, so a cancelled run fails within one barrier
// boundary without every worker paying the ctx.Err() cost.
func (r *parRunner[T]) bail(bar *par.Barrier, w int) bool {
	if w == 0 && r.ctx != nil && !r.stop.Load() {
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
		}
	}
	if !r.stop.Load() {
		return false
	}
	bar.Drop()
	return true
}

// sync is one barrier arrival, preceded by the fault hook's barrier
// event (stall/panic injection point).
func (r *parRunner[T]) sync(bar *par.Barrier, phase string, w int) {
	if r.hook != nil {
		r.hook.Barrier(phase, w)
	}
	bar.Await() //mp:nolint every engine body runs under guarded(), whose defer Drops the barrier on panic
}

// combine applies the operator, reporting the element to the fault
// hook first.
func (r *parRunner[T]) combine(phase string, i int, x, y T) T {
	if r.hook != nil {
		r.hook.Combine(phase, i)
	}
	return r.op.Combine(x, y)
}

// spinetree runs the SPINETREE phase: for each row, top to bottom, a
// gather half-step (concurrent read of bucket spines) and a scatter
// half-step (ARB concurrent write), separated by barriers so that PRAM
// read-before-write semantics hold within the step.
func (r *parRunner[T]) spinetree() { r.launch(PhaseSpinetree, r.spinetreeLoop) }

func (r *parRunner[T]) spinetreeLoop(w int, bar *par.Barrier) {
	a, m := r.a, r.a.m
	for row := a.grid.Rows - 1; row >= 0; row-- {
		if r.bail(bar, w) {
			return
		}
		lo, hi := a.grid.Row(row)
		wlo, whi := par.Range(hi-lo, r.workers, w)
		if r.labels32 != nil {
			gatherSpines(a.spine, r.labels32, m, lo+wlo, lo+whi)
		} else {
			gatherSpines(a.spine, r.labels, m, lo+wlo, lo+whi)
		}
		r.sync(bar, PhaseSpinetree, w)
		if r.labels32 != nil {
			scatterSpines(a.spine, r.labels32, r.locks, m, lo+wlo, lo+whi)
		} else {
			scatterSpines(a.spine, r.labels, r.locks, m, lo+wlo, lo+whi)
		}
		r.sync(bar, PhaseSpinetree, w)
	}
}

// gatherSpines is one worker's gather half-step of a SPINETREE row over
// elements [lo, hi): read each element's bucket spine.
func gatherSpines[L Label](spine []int32, labels []L, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		spine[m+i] = atomic.LoadInt32(&spine[labels[i]])
	}
}

// scatterSpines is the matching scatter half-step: the ARB concurrent
// write of each element's index into its bucket spine, by atomic store
// or, for the MutexArb ablation, under the bucket's lock stripe.
func scatterSpines[L Label](spine []int32, labels []L, locks []sync.Mutex, m, lo, hi int) {
	if locks == nil {
		for i := lo; i < hi; i++ {
			atomic.StoreInt32(&spine[labels[i]], int32(m+i))
		}
		return
	}
	for i := lo; i < hi; i++ {
		l := labels[i]
		mu := &locks[l%arbLockStripes]
		mu.Lock()
		spine[l] = int32(m + i)
		mu.Unlock()
	}
}

// rowsums runs the ROWSUMS phase column by column. Within a column all
// parents are distinct (Corollary 1), so plain writes suffice; the
// barrier between columns orders sibling updates so that a parent's
// rowsum accumulates in vector order even for non-commutative ops.
func (r *parRunner[T]) rowsums() { r.launch(PhaseRowsums, r.rowsumsLoop) }

func (r *parRunner[T]) rowsumsLoop(w int, bar *par.Barrier) {
	a, m := r.a, r.a.m
	for c := 0; c < a.grid.P; c++ {
		if r.bail(bar, w) {
			return
		}
		colLen := a.grid.ColumnLen(c)
		wlo, whi := par.Range(colLen, r.workers, w)
		if !a.tryRowsumsCol(r.fast, r.values, c, wlo, whi) {
			for k := wlo; k < whi; k++ {
				i := c + k*a.grid.P
				p := a.spine[m+i]
				a.rowsum[p] = r.combine(PhaseRowsums, i, a.rowsum[p], r.values[i])
				if a.isSpine != nil {
					a.isSpine[p] = true
				}
			}
		}
		r.sync(bar, PhaseRowsums, w)
	}
}

// spinesums runs the SPINESUMS phase row by row, bottom to top. At most
// one spine element per class per row and distinct parents across
// classes make each step EREW.
func (r *parRunner[T]) spinesums() { r.launch(PhaseSpinesums, r.spinesumsLoop) }

func (r *parRunner[T]) spinesumsLoop(w int, bar *par.Barrier) {
	a, m := r.a, r.a.m
	for row := 0; row < a.grid.Rows; row++ {
		if r.bail(bar, w) {
			return
		}
		lo, hi := a.grid.Row(row)
		wlo, whi := par.Range(hi-lo, r.workers, w)
		if !a.trySpinesumsRow(r.fast, r.op, r.test, lo+wlo, lo+whi) {
			for i := lo + wlo; i < lo+whi; i++ {
				ok := a.spineElement(m+i, r.test)
				if r.hook != nil {
					ok = r.hook.SpineTest(i, ok)
				}
				if !ok {
					continue
				}
				p := a.spine[m+i]
				a.spinesum[p] = r.combine(PhaseSpinesums, i, a.spinesum[m+i], a.rowsum[m+i])
			}
		}
		r.sync(bar, PhaseSpinesums, w)
	}
}

// multisums runs the MULTISUMS phase column by column; same EREW
// argument as rowsums.
func (r *parRunner[T]) multisums() { r.launch(PhaseMultisums, r.multisumsLoop) }

// newPooledParRunner builds an empty runner whose team-round bodies
// are bound once; reset rebinds the per-call state. The pooled engines
// keep one of these per Buffers so a steady-state call allocates
// neither closures nor the runner.
func newPooledParRunner[T any]() *parRunner[T] {
	r := &parRunner[T]{}
	r.mainBody = r.teamMain
	r.multiBody = r.teamMulti
	return r
}

// resetParRunner rebinds the runner to one run's inputs, its labels of
// either width. workers must equal the team's worker count.
func resetParRunner[T any, L Label](r *parRunner[T], a *arena[T], op Op[T], values []T, labels []L, multi []T, workers int, cfg Config) {
	r.a, r.op, r.values, r.multi = a, op, values, multi
	switch ls := any(labels).(type) {
	case []int:
		r.labels, r.labels32 = ls, nil
	case []int32:
		r.labels, r.labels32 = nil, ls
	}
	r.workers = workers
	r.test = cfg.SpineTest
	r.ctx = cfg.Ctx
	r.hook = cfg.FaultHook
	r.fast = op.fastKind(cfg.FaultHook)
	if cfg.MutexArb && r.locks == nil {
		r.locks = make([]sync.Mutex, arbLockStripes)
	} else if !cfg.MutexArb {
		r.locks = nil
	}
	r.stop.Store(false)
	r.err = nil
}

// teamMain is one team round covering the SPINETREE, ROWSUMS and
// SPINESUMS phases back to back: within each phase the loop structure
// (and thus the barrier arrival count) is identical on every worker,
// and each phase's final row/column barrier orders its writes before
// the next phase's reads, so no extra synchronization is needed
// between phases. A worker that observes the stop flag after a phase
// returns early; its siblings drain via their own bail polls, exactly
// as in the per-phase launch path.
func (r *parRunner[T]) teamMain(w int, bar *par.Barrier) {
	phase := PhaseSpinetree
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(newEnginePanic("parallel", phase, w, rec))
			bar.Drop()
		}
	}()
	r.spinetreeLoop(w, bar)
	if r.stop.Load() {
		return
	}
	phase = PhaseRowsums
	r.rowsumsLoop(w, bar)
	if r.stop.Load() {
		return
	}
	phase = PhaseSpinesums
	r.spinesumsLoop(w, bar)
}

// teamMulti is the second team round: the MULTISUMS phase, run after
// the caller has taken the reductions off the arena.
func (r *parRunner[T]) teamMulti(w int, bar *par.Barrier) {
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(newEnginePanic("parallel", PhaseMultisums, w, rec))
			bar.Drop()
		}
	}()
	r.multisumsLoop(w, bar)
}

func (r *parRunner[T]) multisumsLoop(w int, bar *par.Barrier) {
	a, m := r.a, r.a.m
	for c := 0; c < a.grid.P; c++ {
		if r.bail(bar, w) {
			return
		}
		colLen := a.grid.ColumnLen(c)
		wlo, whi := par.Range(colLen, r.workers, w)
		if !a.tryMultisumsCol(r.fast, r.values, r.multi, c, wlo, whi) {
			for k := wlo; k < whi; k++ {
				i := c + k*a.grid.P
				p := a.spine[m+i]
				r.multi[i] = a.spinesum[p]
				a.spinesum[p] = r.combine(PhaseMultisums, i, a.spinesum[p], r.values[i])
			}
		}
		r.sync(bar, PhaseMultisums, w)
	}
}
