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

	backend string
	// exec is how the plan runs; an auto plan's Promote may switch it
	// between planSerial and planChunked, with team and chunks.
	//mp:guarded-by mu
	exec     planKind
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

	// the persistent worker team of the chunked and sharded plans, the
	// cleanup that closes it if the plan is dropped, and the sharded
	// bodies' per-run state
	//mp:guarded-by mu
	team *par.Team
	//mp:guarded-by mu
	teamCleanup runtime.Cleanup
	guard       core.Guard
	fast        core.FastOp
	//mp:guarded-by mu
	runMulti bool // current run wants Multi (read by worker bodies)
	//mp:guarded-by mu
	values []T // current run's values (read by worker bodies)

	// chunked state: core's runner, planned over the labels
	//mp:guarded-by mu
	chunks *core.ChunkRunner[T, int32]

	// sorted-family state (see sharded.go): S contiguous element
	// ranges, each with its own counting-sort row over the shared
	// full-length sperm, and the flat S×m ping-pong carry buffers of
	// the exclusive-prefix exchange
	engine      string      // "plan/sorted" or "plan/sharded", for panics
	sperm       []int32     // the shards' counting-sort permutations
	shardsN     int         // shard count S (one team worker per shard)
	shLo, shHi  []int       // element range per shard
	shStart     [][]int32   // per-shard run-bound rows, each len m+1
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

	// trial is an auto plan's trial record; nil when the plan ran none.
	// A library auto plan sets it before the plan is returned; a
	// RulePlan plan (deferred) sets it at most once, in Promote.
	//mp:guarded-by mu
	trial *AutoTrial
	//mp:guarded-by mu
	deferred bool

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
		if err := pramCheck(name, op); err != nil {
			return nil, err
		}
		if p.n == 0 {
			k = kindSerial
		}
	}
	switch k {
	case kindSerial:
		p.exec = planSerial
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
		p.startTeam(core.ChunkWorkers(cfg.Workers, p.n))
		p.chunks = core.NewChunkRunner[T, int32]("plan/chunked")
		p.chunks.Plan(p.team, op, p.labels, p.m)
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

// startTeam starts the plan's persistent worker team.
//
//mp:locked
func (p *Plan[T]) startTeam(workers int) {
	p.team = par.NewTeam(workers)
	p.watchTeam()
}

// watchTeam registers the cleanup that closes p's team if p is dropped
// without Close, so the team's parked goroutines do not leak. It
// replaces any earlier one: a plan whose team moved (swapEngine) must
// not close it when it is collected, and the team's new owner must.
//
//mp:locked
func (p *Plan[T]) watchTeam() {
	p.teamCleanup.Stop()
	p.teamCleanup = runtime.Cleanup{}
	if p.team != nil {
		p.teamCleanup = runtime.AddCleanup(p, func(t *par.Team) { t.Close() }, p.team)
	}
}

// swapEngine exchanges p's engine with c's: the execution kind, the
// chunk runner and the worker team, each team's cleanup moving with
// it. c is a trial candidate built over p's own labels (trial.go), so
// a chunk runner planned for c is planned for p. Nothing else moves:
// p keeps its labels, result storage, resident state and version.
// Callers hold p.mu; c is unpublished.
//
//mp:locked
func (p *Plan[T]) swapEngine(c *Plan[T]) {
	p.exec, c.exec = c.exec, p.exec
	p.team, c.team = c.team, p.team
	p.chunks, c.chunks = c.chunks, p.chunks
	p.watchTeam()
	c.watchTeam()
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
	var probe []T
	switch any(probe).(type) {
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
	if p.n == 0 {
		return nil // degenerates to the serial pass
	}
	vp, err := vecmp.NewPlan(vector.NewDefault(), eop, p.labels, p.m, vcfg(p.cfg))
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

// Labels returns the plan's label vector, fixed at build time. The
// slice is the plan's own storage: callers must not modify it.
func (p *Plan[T]) Labels() []int32 { return p.labels }

// Bytes reports the heap bytes the plan holds: its labels, the
// Run/Reduce result storage once used, the sorted family's index and
// carries, the chunk runner's buckets and lists, the study
// engines' pooled arena, and the stateful tier once bound. It sums
// backing-array capacities; the Plan struct, its closures and its
// worker team's goroutines (a few KB) are not counted, nor is the
// simulated vector machine's memory.
func (p *Plan[T]) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := core.SliceBytes(p.labels) + core.SliceBytes(p.multi) + core.SliceBytes(p.red) +
		core.SliceBytes(p.sperm) + core.SliceBytes(p.shLo) + core.SliceBytes(p.shHi) +
		core.SliceBytes(p.shStart) + core.SliceBytes(p.shCarryA) + core.SliceBytes(p.shCarryB)
	for w := range len(p.shStart) {
		n += core.SliceBytes(p.shStart[w])
	}
	if p.chunks != nil {
		n += p.chunks.Bytes()
	}
	if p.buf != nil {
		n += p.buf.Bytes()
	}
	n += core.SliceBytes(p.vals) + core.SliceBytes(p.snapMulti) + core.SliceBytes(p.snapRed) +
		core.SliceBytes(p.iloc) + core.SliceBytes(p.ftree)
	if p.exec != planSharded || p.shardsN != 1 {
		// a one-shard sorted plan's stateful index aliases its own
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
		return p.serialRun(values, true)
	case planSharded:
		err = p.runSharded(values, true)
		res = core.Result[T]{Multi: p.multi, Reductions: p.red}
	case planChunked:
		multi, red := p.results(true)
		err = p.chunks.Run(p.team, values, multi, red, p.cfg)
		res = core.Result[T]{Multi: multi, Reductions: red}
	case planBuffers:
		if p.bufKind == kindSpinetree {
			res, err = core.SpinetreeIn(p.buf, p.op, values, p.labels, p.m, p.cfg)
		} else {
			res, err = core.ParallelIn(p.buf, p.op, values, p.labels, p.m, p.cfg)
		}
	case planVector:
		res, err = p.vrun(values)
	case planPram:
		res, err = p.runPram(values, true)
	}
	if err == nil {
		return res, nil
	}
	if p.fallback && !terminalErr(err) {
		return p.serialRun(values, true)
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
		res, err := p.serialRun(values, false)
		return res.Reductions, err
	case planSharded:
		if err = p.runSharded(values, false); err == nil {
			red = p.red
		}
	case planChunked:
		_, red = p.results(false)
		if err = p.chunks.Run(p.team, values, nil, red, p.cfg); err != nil {
			red = nil
		}
	case planBuffers:
		if p.bufKind == kindSpinetree {
			red, err = core.SpinetreeReduceIn(p.buf, p.op, values, p.labels, p.m, p.cfg)
		} else {
			red, err = core.ParallelReduceIn(p.buf, p.op, values, p.labels, p.m, p.cfg)
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
	if p.fallback && !terminalErr(err) {
		res, ferr := p.serialRun(values, false)
		return res.Reductions, ferr
	}
	return nil, err
}

// results returns the plan's Run/Reduce storage, allocating it on
// first use: the reductions always, the prefixes when withMulti.
//
//mp:locked
func (p *Plan[T]) results(withMulti bool) (multi, red []T) {
	if len(p.red) != p.m {
		p.red = make([]T, p.m)
	}
	if withMulti && len(p.multi) != p.n {
		p.multi = make([]T, p.n)
	}
	return p.multi, p.red
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
	_, red := p.results(false)
	return red
}

// serialRun is one planned serial pass into the plan's result storage:
// a serial plan's Run and Reduce, and the auto plan's degradation of a
// failed run. It goes through serialBatch, the one serial rung.
//
//mp:locked
func (p *Plan[T]) serialRun(values []T, withMulti bool) (core.Result[T], error) {
	multi, red := p.results(withMulti)
	dst := [1][]T{red}
	if withMulti {
		dst[0] = multi
	}
	src := [1][]T{values}
	if err := p.serialBatch(dst[:], src[:], withMulti); err != nil {
		return core.Result[T]{}, err
	}
	res := core.Result[T]{Reductions: red}
	if withMulti {
		res.Multi = multi
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
