package core

import (
	"runtime"
	"sync"

	"multiprefix/internal/par"
)

// Workspace is a pool of reusable engine state. The paper's position
// is that multiprefix is a *primitive* — called once per radix-sort
// pass or SpMV step — so per-call setup dominates at production call
// rates; a Workspace amortizes it away: arena vectors, spine pointers,
// per-chunk buckets, result slices and the worker goroutines
// themselves are all created on the first call and reused afterwards,
// making steady-state Compute/Reduce calls allocation-free.
//
// Acquire a *Buffers, run any number of operations on it, Release it
// when done. The pool is backed by sync.Pool, so idle Buffers are
// dropped under memory pressure (their worker teams are shut down by a
// GC cleanup) and Acquire never blocks.
type Workspace[T any] struct {
	pool sync.Pool
}

// NewWorkspace returns an empty workspace.
func NewWorkspace[T any]() *Workspace[T] {
	ws := &Workspace[T]{}
	ws.pool.New = func() any { return &Buffers[T]{} }
	return ws
}

// Acquire returns a Buffers for exclusive use by one goroutine.
func (ws *Workspace[T]) Acquire() *Buffers[T] {
	return ws.pool.Get().(*Buffers[T])
}

// Release returns b to the pool. Results returned from b's methods
// alias its internal storage and must not be used after Release.
func (ws *Workspace[T]) Release(b *Buffers[T]) {
	ws.pool.Put(b)
}

// Buffers is the reusable state of one multiprefix execution stream:
// result slices, the spinetree arena, per-chunk bucket storage, and a
// persistent team of worker goroutines. Not safe for concurrent use.
//
// Results returned by Buffers methods alias internal storage: they are
// valid until the next call on the same Buffers (or its Release).
// Callers that need to keep a result copy it out.
type Buffers[T any] struct {
	multi []T
	red   []T
	aux   []T     // values scratch for derived helpers (EnumerateIn)
	lab   []int   // labels scratch for derived helpers (SegmentedScanIn)
	perm  []int32 // sorted engine: counting-sort permutation
	start []int32 // sorted engine: per-label run bounds (len m+1)
	arena arena[T]

	team   *par.Team
	runner *parRunner[T]        // pooled Parallel state
	chunk  *ChunkRunner[T, int] // pooled Chunked state
}

// Bytes reports the heap bytes b holds: result storage, scratch, the
// sorted index, the spinetree arena and the pooled chunk runner's
// storage.
func (b *Buffers[T]) Bytes() int64 {
	a := &b.arena
	n := SliceBytes(b.multi) + SliceBytes(b.red) + SliceBytes(b.aux) + SliceBytes(b.lab) +
		SliceBytes(b.perm) + SliceBytes(b.start) +
		SliceBytes(a.spine) + SliceBytes(a.rowsum) + SliceBytes(a.spinesum) + SliceBytes(a.marks)
	if b.chunk != nil {
		n += b.chunk.Bytes()
	}
	return n
}

func (b *Buffers[T]) growMulti(n int) []T {
	b.multi = grown(b.multi, n)
	return b.multi
}

func (b *Buffers[T]) growRed(m int) []T {
	b.red = grown(b.red, m)
	return b.red
}

// growSortedIndex sizes the pooled counting-sort permutation and run
// bounds for an (n, m) problem.
func (b *Buffers[T]) growSortedIndex(n, m int) (perm, start []int32) {
	b.perm = grown(b.perm, n)
	b.start = grown(b.start, m+1)
	return b.perm, b.start
}

// ensureTeam returns a persistent worker team of exactly the given
// size, rebuilding only when the size changed since the previous call
// (steady-state same-shape calls reuse the parked goroutines).
func (b *Buffers[T]) ensureTeam(workers int) *par.Team {
	if b.team != nil && b.team.Workers() == workers {
		return b.team
	}
	if b.team != nil {
		b.team.Close()
	}
	t := par.NewTeam(workers)
	b.team = t
	// Buffers dropped by the GC (a sync.Pool eviction, or a caller that
	// never Releases) must not leak the team's parked goroutines.
	runtime.AddCleanup(b, func(t *par.Team) { t.Close() }, t)
	return t
}

// dropTeam shuts the team down; the next call rebuilds it. Called
// after a failed Parallel run, whose barrier Drop may have poisoned
// the team's inner barrier.
func (b *Buffers[T]) dropTeam() {
	if b.team != nil {
		b.team.Close()
		b.team = nil
	}
}

// Serial is Serial drawing result storage from b.
//
//mp:hotpath
func (b *Buffers[T]) Serial(op Op[T], values []T, labels []int, m int) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	multi := b.growMulti(len(values))
	red := b.growRed(m)
	fillIdentity(red, op.Identity)
	if !tryBucketLoop(op.Fast, values, labels, multi, red) {
		for i, v := range values {
			l := labels[i]
			multi[i] = red[l]
			red[l] = op.Combine(red[l], v)
		}
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// SerialReduce is SerialReduce drawing result storage from b.
//
//mp:hotpath
func (b *Buffers[T]) SerialReduce(op Op[T], values []T, labels []int, m int) (out []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	defer recoverEnginePanic("serial", nil, &err)
	red := b.growRed(m)
	fillIdentity(red, op.Identity)
	if !tryBucketLoop(op.Fast, values, labels, nil, red) {
		for i, v := range values {
			l := labels[i]
			red[l] = op.Combine(red[l], v)
		}
	}
	return red, nil
}

// Spinetree is Spinetree reusing b's arena and result storage.
//
//mp:hotpath
func (b *Buffers[T]) Spinetree(op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return SpinetreeIn(b, op, values, labels, m, cfg)
}

// SpinetreeReduce is SpinetreeReduce reusing b's arena and storage.
//
//mp:hotpath
func (b *Buffers[T]) SpinetreeReduce(op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	return SpinetreeReduceIn(b, op, values, labels, m, cfg)
}

// Parallel is Parallel reusing b's arena, result storage and worker
// team. A failed run (panic, cancellation) may have poisoned the
// team's barrier, so the team is rebuilt on the next call.
//
//mp:hotpath
func (b *Buffers[T]) Parallel(op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return ParallelIn(b, op, values, labels, m, cfg)
}

// ParallelReduce is ParallelReduce on pooled state.
//
//mp:hotpath
func (b *Buffers[T]) ParallelReduce(op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	return ParallelReduceIn(b, op, values, labels, m, cfg)
}

// SpinetreeIn is b.Spinetree over labels of either width; a backend
// plan passes its int32 labels without widening them.
//
//mp:hotpath
func SpinetreeIn[T any, L Label](b *Buffers[T], op Op[T], values []T, labels []L, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	a := &b.arena
	if err := prepareArena(a, op, labels, m, cfg); err != nil {
		return Result[T]{}, err
	}
	multi := b.growMulti(len(values))
	red := b.growRed(m)
	phase := PhaseSpinetree
	defer recoverEnginePanic("spinetree", &phase, &err)
	phaseSpinetree(a, labels)
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	phase = PhaseRowsums
	a.phaseRowsums(op, values, cfg.FaultHook)
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	phase = PhaseSpinesums
	a.phaseSpinesums(op, cfg.SpineTest, cfg.FaultHook)
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	phase = PhaseReduce
	a.reductionsInto(op, cfg.FaultHook, red)
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	phase = PhaseMultisums
	a.phaseMultisums(op, values, multi, cfg.FaultHook)
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// SpinetreeReduceIn is b.SpinetreeReduce over labels of either width.
//
//mp:hotpath
func SpinetreeReduceIn[T any, L Label](b *Buffers[T], op Op[T], values []T, labels []L, m int, cfg Config) (out []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	a := &b.arena
	if err := prepareArena(a, op, labels, m, cfg); err != nil {
		return nil, err
	}
	red := b.growRed(m)
	phase := PhaseSpinetree
	defer recoverEnginePanic("spinetree", &phase, &err)
	phaseSpinetree(a, labels)
	phase = PhaseRowsums
	a.phaseRowsums(op, values, cfg.FaultHook)
	phase = PhaseSpinesums
	a.phaseSpinesums(op, cfg.SpineTest, cfg.FaultHook)
	phase = PhaseReduce
	a.reductionsInto(op, cfg.FaultHook, red)
	return red, nil
}

// ParallelIn is b.Parallel over labels of either width.
//
//mp:hotpath
func ParallelIn[T any, L Label](b *Buffers[T], op Op[T], values []T, labels []L, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	a := &b.arena
	if err := prepareArena(a, op, labels, m, cfg); err != nil {
		return Result[T]{}, err
	}
	multi := b.growMulti(len(values))
	red := b.growRed(m)
	workers := parWorkers(cfg.Workers, a.grid.P)
	if b.runner == nil {
		b.runner = newPooledParRunner[T]()
	}
	r := b.runner
	resetParRunner(r, a, op, values, labels, multi, workers, cfg)
	team := b.ensureTeam(workers)
	phase := PhaseSpinetree
	defer recoverEnginePanic("parallel", &phase, &err)
	team.Run(r.mainBody)
	if err := r.failure(); err != nil {
		b.dropTeam()
		return Result[T]{}, err
	}
	phase = PhaseReduce
	a.reductionsInto(op, r.hook, red)
	phase = PhaseMultisums
	team.Run(r.multiBody)
	if err := r.failure(); err != nil {
		b.dropTeam()
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// ParallelReduceIn is b.ParallelReduce over labels of either width.
//
//mp:hotpath
func ParallelReduceIn[T any, L Label](b *Buffers[T], op Op[T], values []T, labels []L, m int, cfg Config) (out []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	a := &b.arena
	if err := prepareArena(a, op, labels, m, cfg); err != nil {
		return nil, err
	}
	red := b.growRed(m)
	workers := parWorkers(cfg.Workers, a.grid.P)
	if b.runner == nil {
		b.runner = newPooledParRunner[T]()
	}
	r := b.runner
	resetParRunner(r, a, op, values, labels, nil, workers, cfg)
	team := b.ensureTeam(workers)
	phase := PhaseSpinetree
	defer recoverEnginePanic("parallel", &phase, &err)
	team.Run(r.mainBody)
	if err := r.failure(); err != nil {
		b.dropTeam()
		return nil, err
	}
	phase = PhaseReduce
	a.reductionsInto(op, r.hook, red)
	return red, nil
}

// Chunked is Chunked reusing b's ChunkRunner, result storage and
// worker team. The touched lists are found again on every call, so
// the labels may change between calls. Chunk bodies never touch the
// team's inner barrier, so a failed chunked run leaves the team
// healthy.
//
//mp:hotpath
func (b *Buffers[T]) Chunked(op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	multi, red := b.growMulti(len(values)), b.growRed(m)
	if err := b.chunked(op, values, labels, m, multi, red, cfg); err != nil {
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// ChunkedReduce is ChunkedReduce on pooled state.
//
//mp:hotpath
func (b *Buffers[T]) ChunkedReduce(op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	red := b.growRed(m)
	if err := b.chunked(op, values, labels, m, nil, red, cfg); err != nil {
		return nil, err
	}
	return red, nil
}

// chunked binds b's runner to one validated call and runs it on b's
// team.
func (b *Buffers[T]) chunked(op Op[T], values []T, labels []int, m int, multi, red []T, cfg Config) error {
	workers := chunkWorkers(cfg.Workers, len(values))
	if b.chunk == nil {
		b.chunk = NewChunkRunner[T, int]("chunked")
	}
	b.chunk.bind(op, labels, m, workers)
	return b.chunk.Run(b.ensureTeam(workers), values, multi, red, cfg)
}

// SerialEngine adapts b's pooled Serial to the Engine signature.
func (b *Buffers[T]) SerialEngine() Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		return b.Serial(op, values, labels, m)
	}
}

// SpinetreeEngine adapts b's pooled Spinetree with a fixed Config.
func (b *Buffers[T]) SpinetreeEngine(cfg Config) Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		return b.Spinetree(op, values, labels, m, cfg)
	}
}

// ParallelEngine adapts b's pooled Parallel with a fixed Config.
func (b *Buffers[T]) ParallelEngine(cfg Config) Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		return b.Parallel(op, values, labels, m, cfg)
	}
}

// ChunkedEngine adapts b's pooled Chunked with a fixed Config.
func (b *Buffers[T]) ChunkedEngine(cfg Config) Engine[T] {
	return func(op Op[T], values []T, labels []int, m int) (Result[T], error) {
		return b.Chunked(op, values, labels, m, cfg)
	}
}

// EnumerateIn is Enumerate drawing the internal all-ones value vector
// from b, so repeated enumerations through a pooled engine are
// allocation-free end to end.
func EnumerateIn(b *Buffers[int64], labels []int, m int, engine Engine[int64]) (ranks, counts []int64, err error) {
	if engine == nil {
		return nil, nil, wrapBadInput("nil engine")
	}
	if err := checkAddrs("labels", labels, m); err != nil {
		return nil, nil, err
	}
	b.aux = grown(b.aux, len(labels))
	for i := range b.aux {
		b.aux[i] = 1
	}
	res, err := engine(AddInt64, b.aux, labels, m)
	if err != nil {
		return nil, nil, err
	}
	return res.Multi, res.Reductions, nil
}

// SegmentedScanIn is SegmentedScan drawing the materialized label
// vector from b instead of allocating it per call.
func SegmentedScanIn[T any](b *Buffers[T], op Op[T], values []T, segments []bool, engine Engine[T]) (scans, totals []T, err error) {
	if err := checkDerivedArgs(op, engine); err != nil {
		return nil, nil, err
	}
	if len(values) != len(segments) {
		return nil, nil, wrapBadInput("len(values)=%d, len(segments)=%d", len(values), len(segments))
	}
	b.lab = grown(b.lab, len(segments))
	seg := -1
	for i, start := range segments {
		if start || i == 0 {
			seg++
		}
		b.lab[i] = seg
	}
	res, err := engine(op, values, b.lab, seg+1)
	if err != nil {
		return nil, nil, err
	}
	return res.Multi, res.Reductions, nil
}

// parWorkers resolves the worker count for the parallel engines: the
// shared par.ClampWorkers normalization, capped by the grid width (no
// point exceeding the widest pardo).
func parWorkers(workers, gridP int) int {
	workers = par.ClampWorkers(workers)
	if workers > gridP {
		workers = gridP
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
