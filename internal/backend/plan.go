package backend

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
	"multiprefix/internal/pram"
	"multiprefix/internal/vecmp"
	"multiprefix/internal/vector"
)

// planKind is how a Plan executes its runs.
type planKind uint8

const (
	// planSerial: the one-pass bucket algorithm over plan-owned
	// storage, in CancelStride segments when a context is set.
	planSerial planKind = iota
	// planChunked: core's ChunkRunner, the one chunked body, with
	// each chunk's touched-label list found once at plan time on the
	// plan's worker team.
	planChunked
	// planBuffers: spinetree or parallel, delegated to a plan-owned
	// pooled core.Buffers (the arena is rebuilt per run — those
	// engines' spine structure depends on the row-length choice the
	// arena makes — but all storage and the worker team persist).
	planBuffers
	// planVector: a vecmp.Plan whose spinetree was built once (the
	// paper's §5.2.1 setup/evaluation split) and is evaluated against
	// each value vector.
	planVector
	// planPram: per-run simulated PRAM execution. The simulator
	// allocates its machine per run; Plan here only amortizes
	// validation.
	planPram
	// planSharded: the sorted engine, for both the sorted and the
	// sharded backend — S contiguous element ranges each
	// counting-sorted at plan time, scanned reduce-only per shard,
	// carries combined in ⌈log₂S⌉ exclusive-prefix exchange rounds,
	// then a seeded per-shard rescan for the prefixes; one shard is a
	// single fused scan (see sharded.go).
	planSharded
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

	backend  string
	exec     planKind
	fallback bool // auto: degrade to the serial pass on internal failure
	op       core.Op[T]
	// cfg is swapped by per-call overrides and restored on return.
	//mp:guarded-by mu
	cfg     core.Config
	n, m    int
	classes int
	labels  []int

	// serial / chunked result storage, overwritten by every evaluation
	//mp:guarded-by mu
	multi []T
	//mp:guarded-by mu
	red []T

	// the persistent worker team of the chunked and sharded plans, and
	// the sharded bodies' per-run state
	team  *par.Team
	guard core.Guard
	fast  core.FastOp
	//mp:guarded-by mu
	runMulti bool // current run wants Multi (read by worker bodies)
	//mp:guarded-by mu
	values []T // current run's values (read by worker bodies)

	// chunked state: core's runner, planned over the labels
	chunks *core.ChunkRunner[T]

	// sorted-family state (see sharded.go): S contiguous element
	// ranges, each with its own counting-sort row over the shared
	// full-length sperm; the plan-time cache tiling of each shard's
	// scan; and the flat S×m ping-pong carry buffers of the
	// exclusive-prefix exchange
	engine     string    // "plan/sorted" or "plan/sharded", for panics
	sperm      []int32   // the shards' counting-sort permutations
	shardsN    int       // shard count S (one team worker per shard)
	shLo, shHi []int     // element range per shard
	shStart    [][]int32 // per-shard run-bound rows, each len m+1
	// tiles holds one tiling per shard. Nil when tiling doesn't apply
	// (generic element type, non-fast op, n within a few tile windows
	// or segments too short); runs with a FaultHook skip it at dispatch
	// since fast demotes to FastNone.
	tiles       []core.TileSegs
	shCarryA    []T         // flat S×m totals / exchange buffer (pass-1 target)
	shCarryB    []T         // flat S×m exchange ping-pong partner
	shRounds    int         // ⌈log₂S⌉
	sortedStop  func() bool // prebound guard poll for worker bodies
	shBody      func(w int, bar *par.Barrier)
	shBatchBody func(w int, bar *par.Barrier)
	// shMeasured counts the exchange rounds the last evaluation actually
	// executed (ShardStats.MeasuredRounds, which shard-smoke asserts).
	//mp:guarded-by mu
	shMeasured int // written by worker 0 between barriers

	// batched execution state (read by the batch team bodies)
	//mp:guarded-by mu
	batchDsts, batchSrcs [][]T

	// trial is an auto plan's build-time trial record; nil when the
	// plan ran none. Set once before the plan is returned.
	trial *AutoTrial

	// spinetree / parallel delegate state
	buf     *core.Buffers[T]
	bufKind kind

	// vector state: monomorphic closures bound to a vecmp.Plan
	vrun         func(values []T) (core.Result[T], error)
	vreduce      func(values []T) ([]T, error)
	vrunBatch    func(dsts, srcs [][]T) error
	vreduceBatch func(dsts, srcs [][]T) error

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
	iperm []int32 // counting-sort permutation (aliases sperm on one-shard plans)
	//mp:guarded-by mu
	istart []int32 // per-label run bounds, len m+1 (aliases shStart[0])
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
// labels. The label vector is copied; later mutation of the caller's
// slice does not affect the plan.
func (b impl[T]) Plan(op core.Op[T], labels []int, m int, cfg core.Config) (*Plan[T], error) {
	if err := core.ValidatePlan(op, labels, m); err != nil {
		return nil, err
	}
	if b.k == kindAuto && runsTrial(len(labels), m, cfg) {
		return trialPlan(op, labels, m, cfg)
	}
	p := &Plan[T]{
		backend: b.name,
		op:      op,
		cfg:     cfg,
		n:       len(labels),
		m:       m,
		classes: core.CountClasses(labels, m),
		labels:  append([]int(nil), labels...),
	}
	k := b.k
	if k == kindAuto {
		// No trial (see trialPlan): the one-shot rule decides, once,
		// at plan time. The fallback-to-serial degradation of the
		// one-shot Auto engine is preserved per run.
		p.fallback = true
		k = kindSerial
		if core.AutoPlanChoice(p.n, m, cfg) == "chunked" {
			k = kindChunked
		}
	}
	// The simulated machines assume at least one element; an empty
	// plan degenerates to the (trivially equivalent) serial pass after
	// their capability checks.
	switch k {
	case kindVector:
		if err := p.prepareVector(); err != nil {
			return nil, err
		}
		if p.n == 0 {
			k = kindSerial
		}
	case kindPram:
		if err := pramCheck(b.name, op); err != nil {
			return nil, err
		}
		if p.n == 0 {
			k = kindSerial
		}
	}
	switch k {
	case kindSerial:
		p.exec = planSerial
		p.multi = make([]T, p.n)
		p.red = make([]T, m)
	case kindSorted:
		if err := p.prepareSharded("sorted", core.ChunkWorkers(cfg.Workers, p.n)); err != nil {
			return nil, err
		}
	case kindSharded:
		s := cfg.Shards
		if s <= 0 {
			s = core.ChunkWorkers(cfg.Workers, p.n)
		}
		if err := p.prepareSharded("sharded", s); err != nil {
			return nil, err
		}
	case kindChunked:
		p.exec = planChunked
		p.multi = make([]T, p.n)
		p.red = make([]T, m)
		p.startTeam(core.ChunkWorkers(cfg.Workers, p.n))
		p.chunks = core.NewChunkRunner[T]("plan/chunked")
		p.chunks.Plan(p.team, op, p.labels, m)
	case kindSpinetree, kindParallel:
		p.exec = planBuffers
		p.bufKind = k
		p.buf = new(core.Buffers[T])
	case kindVector:
		p.exec = planVector
	case kindPram:
		p.exec = planPram
	}
	return p, nil
}

// startTeam starts the plan's persistent worker team. A plan dropped
// without Close must not leak the team's parked goroutines, so a
// cleanup closes it.
//
//mp:locked
func (p *Plan[T]) startTeam(workers int) {
	t := par.NewTeam(workers)
	p.team = t
	runtime.AddCleanup(p, func(t *par.Team) { t.Close() }, t)
}

// interrupted is the sharded bodies' stride poll: the plan's guard
// against the current call's context.
//
//mp:locked
func (p *Plan[T]) interrupted() bool {
	return p.guard.Interrupted(p.cfg.Ctx)
}

// prepareVector builds the vecmp.Plan — the one backend with true
// spine-structure reuse: the spinetree depends only on the labels, so
// it is built once here and every Run pays only the evaluation
// phases.
func (p *Plan[T]) prepareVector() error {
	switch any(p.multi).(type) {
	case []int64:
		return bindVecPlan[int64](p)
	case []float64:
		return bindVecPlan[float64](p)
	case []int32:
		return bindVecPlan[int32](p)
	}
	return errElemType[T](p.backend)
}

// bindVecPlan builds the vecmp.Plan at the machine element type E
// (== T) and binds the monomorphic evaluation closures.
//
//mp:locked
func bindVecPlan[E vector.Elem, T any](p *Plan[T]) error {
	eop, ok := any(p.op).(core.Op[E])
	if !ok {
		return errElemType[T](p.backend)
	}
	l32, err := labels32(p.labels, p.m)
	if err != nil {
		return err
	}
	if p.n == 0 {
		return nil // degenerates to the serial pass
	}
	vp, err := vecmp.NewPlan(vector.NewDefault(), eop, l32, p.m, vcfg(p.cfg))
	if err != nil {
		return err
	}
	multi := make([]E, p.n)
	red := make([]E, p.m)
	p.vrun = func(values []T) (core.Result[T], error) {
		if err := vp.MultiprefixInto(any(values).([]E), multi, red); err != nil {
			return core.Result[T]{}, err
		}
		return core.Result[T]{Multi: any(multi).([]T), Reductions: any(red).([]T)}, nil
	}
	p.vreduce = func(values []T) ([]T, error) {
		if err := vp.ReduceInto(any(values).([]E), red); err != nil {
			return nil, err
		}
		return any(red).([]T), nil
	}
	// T == E concretely, so [][]T's dynamic type is [][]E: the batch
	// slices pass through by assertion, no per-vector conversion.
	p.vrunBatch = func(dsts, srcs [][]T) error {
		return vp.MultiprefixBatch(any(dsts).([][]E), any(srcs).([][]E), red)
	}
	p.vreduceBatch = func(dsts, srcs [][]T) error {
		return vp.ReduceBatch(any(dsts).([][]E), any(srcs).([][]E))
	}
	return nil
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

// Close releases the plan's worker team promptly. A closed plan
// rejects further runs. Close is optional: a dropped plan's team is
// reclaimed by a GC cleanup. Close waits for an in-flight evaluation
// to finish.
func (p *Plan[T]) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.team != nil {
		p.team.Close()
		p.team = nil
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
	return p.run(values)
}

// RunCall is Run under per-call overrides.
//
//mp:hotpath
func (p *Plan[T]) RunCall(c Call, values []T) (core.Result[T], error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.run(values)
}

// run dispatches one full-multiprefix evaluation to the planned
// engine, falling back to serial on non-terminal failure. Callers hold
// p.mu. Every engine polls p.cfg.Ctx at cancel-stride granularity.
//
//mp:locked
//mp:polls
func (p *Plan[T]) run(values []T) (core.Result[T], error) {
	if err := p.checkRun(values); err != nil {
		return core.Result[T]{}, err
	}
	var res core.Result[T]
	var err error
	switch p.exec {
	case planSerial:
		err = p.runSerial(values, true)
		res = core.Result[T]{Multi: p.multi, Reductions: p.red}
	case planSharded:
		err = p.runSharded(values, true)
		res = core.Result[T]{Multi: p.multi, Reductions: p.red}
	case planChunked:
		err = p.chunks.Run(p.team, values, p.multi, p.red, p.cfg)
		res = core.Result[T]{Multi: p.multi, Reductions: p.red}
	case planBuffers:
		if p.bufKind == kindSpinetree {
			res, err = p.buf.Spinetree(p.op, values, p.labels, p.m, p.cfg)
		} else {
			res, err = p.buf.Parallel(p.op, values, p.labels, p.m, p.cfg)
		}
	case planVector:
		res, err = p.vrun(values)
	case planPram:
		res, err = p.runPram(values, true)
	}
	if err == nil {
		return res, nil
	}
	if p.fallback && p.exec != planSerial && !terminalErr(err) {
		return p.fallbackSerial(values, true)
	}
	return core.Result[T]{}, err
}

// Reduce evaluates the reductions-only multireduce over values. The
// slice aliases plan-owned storage.
//
//mp:hotpath
func (p *Plan[T]) Reduce(values []T) ([]T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reduce(values)
}

// ReduceCall is Reduce under per-call overrides.
//
//mp:hotpath
func (p *Plan[T]) ReduceCall(c Call, values []T) ([]T, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.reduce(values)
}

// reduce dispatches one reductions-only evaluation; see run.
//
//mp:locked
//mp:polls
func (p *Plan[T]) reduce(values []T) ([]T, error) {
	if err := p.checkRun(values); err != nil {
		return nil, err
	}
	var red []T
	var err error
	switch p.exec {
	case planSerial:
		if err = p.runSerial(values, false); err == nil {
			red = p.red
		}
	case planSharded:
		if err = p.runSharded(values, false); err == nil {
			red = p.red
		}
	case planChunked:
		if err = p.chunks.Run(p.team, values, nil, p.red, p.cfg); err == nil {
			red = p.red
		}
	case planBuffers:
		if p.bufKind == kindSpinetree {
			red, err = p.buf.SpinetreeReduce(p.op, values, p.labels, p.m, p.cfg)
		} else {
			red, err = p.buf.ParallelReduce(p.op, values, p.labels, p.m, p.cfg)
		}
	case planVector:
		red, err = p.vreduce(values)
	case planPram:
		var res core.Result[T]
		if res, err = p.runPram(values, false); err == nil {
			red = res.Reductions
		}
	}
	if err == nil {
		return red, nil
	}
	if p.fallback && p.exec != planSerial && !terminalErr(err) {
		res, ferr := p.fallbackSerial(values, false)
		if ferr != nil {
			return nil, ferr
		}
		return res.Reductions, nil
	}
	return nil, err
}

// fallbackSerial degrades a failed parallel run to the planned serial
// pass over p.multi/p.red (allocated lazily: the auto-parallel plan
// normally keeps its storage in p.buf). Like the one-shot Fallback,
// the retry is hook-free.
//
//mp:locked
func (p *Plan[T]) fallbackSerial(values []T, withMulti bool) (core.Result[T], error) {
	if len(p.multi) != p.n || len(p.red) != p.m {
		p.multi = make([]T, p.n)
		p.red = make([]T, p.m)
	}
	if err := p.runSerial(values, withMulti); err != nil {
		return core.Result[T]{}, err
	}
	res := core.Result[T]{Reductions: p.red}
	if withMulti {
		res.Multi = p.multi
	}
	return res, nil
}

// recoverPlanPanic converts a panic on the calling goroutine into the
// typed engine-panic error, matching the one-shot engines' shield.
func recoverPlanPanic(engine string, err *error) {
	if rec := recover(); rec != nil {
		*err = &core.EnginePanicError{Engine: engine, Worker: -1, Value: rec, Stack: debug.Stack()}
	}
}

// runSerial is the planned one-pass bucket algorithm: no per-run
// validation, no allocation (multi and red are plan-owned). Like the
// one-shot serial engine it never observes fault hooks; with a
// context set it runs in CancelStride segments, polling at each
// boundary.
//
//mp:locked
func (p *Plan[T]) runSerial(values []T, withMulti bool) (err error) {
	defer recoverPlanPanic("plan/serial", &err)
	var multi []T
	if withMulti {
		multi = p.multi
	}
	return p.serialPass(values, multi, p.red)
}

// serialPass is one planned serial pass over values into multi (nil
// for reduce-only) and red.
//
//mp:locked
//mp:polls
func (p *Plan[T]) serialPass(values, multi, red []T) error {
	core.FillIdentity(p.op, red)
	return core.SerialSegments(p.op, values, p.labels, multi, red, p.cfg.Ctx)
}

// runPram executes one simulated PRAM run. The simulator builds its
// machine per run, so this path amortizes only validation; it exists
// so study code can drive repeated traffic through the same Plan API.
//
//mp:locked
func (p *Plan[T]) runPram(values []T, withMulti bool) (core.Result[T], error) {
	procs := par.ClampWorkers(p.cfg.Workers)
	vs := any(values).([]int64)
	var res *pram.Result
	var err error
	if withMulti {
		res, err = pram.RunMultiprefix(procs, vs, p.labels, p.m, p.cfg.RowLength, 1)
	} else {
		res, err = pram.RunMultireduce(procs, vs, p.labels, p.m, p.cfg.RowLength, 1)
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
