package core

import (
	"context"
	"sync"
	"sync/atomic"

	"multiprefix/internal/par"
)

// cancelStride is how many elements a chunked worker processes between
// polls of the cancellation flag and context. Small enough that a
// mid-run cancellation on multi-million-element inputs returns in well
// under a chunk's full runtime; large enough that the poll is free.
const cancelStride = 8192

// Guard is the shared failure state of one team run: the first panic
// or cancellation is recorded and every worker drains at its next
// stride boundary. The chunked runner and the backend's sorted and
// sharded plans all fail through it.
type Guard struct {
	stop atomic.Bool
	mu   sync.Mutex
	err  error
}

// Reset clears the guard for the next run.
func (g *Guard) Reset() {
	g.stop.Store(false)
	g.mu.Lock()
	g.err = nil
	g.mu.Unlock()
}

// Fail records err as the run's failure unless one is already
// recorded, and tells every worker to stop.
func (g *Guard) Fail(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

// First returns the run's first failure, or nil.
func (g *Guard) First() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Interrupted polls the failure flag and the context; a cancelled
// context is recorded as the run's failure.
func (g *Guard) Interrupted(ctx context.Context) bool {
	if g.stop.Load() {
		return true
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			g.Fail(err)
			return true
		}
	}
	return false
}

// Chunked computes the multiprefix operation with the practical
// multicore decomposition (not from the paper; included as the modern
// baseline the spinetree engines are benchmarked against):
//
//  1. split the vector into one contiguous chunk per worker;
//  2. in parallel, run the serial algorithm on each chunk with local
//     buckets, over the labels the chunk touches;
//  3. sequentially combine the per-chunk reductions in chunk order into
//     per-chunk label offsets (an exclusive scan over chunks, per label);
//  4. in parallel, add each chunk's offsets onto its local prefix sums.
//
// Work is O(n + W·L) where L is the number of distinct labels a chunk
// touches; combines happen strictly in vector order, so non-commutative
// operators are safe. Space is O(W·m) dense bucket storage, which is
// the right trade for m up to a few million.
//
// The execution is hardened: a panic in Op.Combine inside any worker is
// recovered into a typed *EnginePanicError and returned, and cfg.Ctx,
// when set, cancels the run within cancelStride elements. The call runs
// on a ChunkRunner and worker team of its own; the team is closed
// before Chunked returns.
func Chunked[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	multi, red := make([]T, len(values)), make([]T, m)
	if err := chunkedOnce(op, values, labels, m, multi, red, cfg); err != nil {
		return Result[T]{}, err
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// ChunkedReduce is the multireduce counterpart of Chunked: per-chunk
// local reductions combined across chunks in vector order, hardened
// the same way.
func ChunkedReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	red := make([]T, m)
	if err := chunkedOnce(op, values, labels, m, nil, red, cfg); err != nil {
		return nil, err
	}
	return red, nil
}

// chunkedOnce runs one validated call on a fresh runner and team, and
// closes the team before returning so no goroutine outlives the call.
func chunkedOnce[T any](op Op[T], values []T, labels []int, m int, multi, red []T, cfg Config) error {
	workers := chunkWorkers(cfg.Workers, len(values))
	r := NewChunkRunner[T, int]("chunked")
	r.bind(op, labels, m, workers)
	team := par.NewTeam(workers)
	defer team.Close()
	return r.Run(team, values, multi, red, cfg)
}

// chunkPass selects what one team round of a ChunkRunner does.
type chunkPass uint8

const (
	passFind  chunkPass = iota // find each chunk's touched labels
	passLocal                  // passes 1+2: each chunk's local bucket pass
	passApply                  // pass 4: add each chunk's offsets
	passBatch                  // passes 1–4 for every vector of a batch
)

// ChunkRunner is the chunked engine: the one body behind the one-shot
// Chunked, the pooled Buffers.Chunked and the backend's chunked Plan.
// A chunk's touched-label list depends only on the labels, so it is
// setup (the §5.2.1 setup/evaluation split): a plan finds the lists
// once (Plan), while one-shot and pooled calls find them per call,
// each worker over its own range at the start of the local pass.
//
// Passes 1+2 and 4 run on a par.Team supplied per call; pass 3 (the
// merge) runs on the calling goroutine, or on worker 0 between two
// barriers in a fused batch. The worker bodies never touch the team's
// inner barrier outside a batch, and a batch drains its remaining
// arrivals on abort, so a failed run leaves the team healthy.
//
// L is the label element type: int for one-shot and pooled calls, the
// plan's int32 for a planned runner.
//
// Not safe for concurrent use; callers serialize runs.
type ChunkRunner[T any, L Label] struct {
	engine  string // EnginePanicError.Engine of this runner's failures
	op      Op[T]
	labels  []L
	n, m    int
	workers int
	fixed   bool   // touched lists belong to labels (Plan); else found per run
	buckets []T    // workers×m: chunk w's buckets, then its offsets
	seen    []bool // workers×m first-touch marks, all false between runs
	order   []L    // backing store of the touched lists
	touched [][]L
	g       Guard
	body    func(w int, inner *par.Barrier)

	// per-run state read by the worker bodies, cleared after each run
	pass       chunkPass
	values     []T
	multi, red []T
	dsts, srcs [][]T
	batchMulti bool
	fast       FastOp
	hook       FaultHook
	ctx        context.Context
}

// NewChunkRunner returns an unbound runner whose *EnginePanicError
// values name engine.
func NewChunkRunner[T any, L Label](engine string) *ChunkRunner[T, L] {
	r := &ChunkRunner[T, L]{engine: engine}
	r.body = r.round
	return r
}

// bind points r at one (op, labels, m) problem split into workers
// chunks, growing its storage in place; runs then find the touched
// lists themselves. Each chunk touches at most min(m, chunk length)
// labels, so min(n, workers·m) slots hold every list.
func (r *ChunkRunner[T, L]) bind(op Op[T], labels []L, m, workers int) {
	r.op, r.labels, r.n, r.m, r.workers, r.fixed = op, labels, len(labels), m, workers, false
	r.buckets = grown(r.buckets, workers*m)
	r.seen = grown(r.seen, workers*m)
	r.order = grown(r.order, min(r.n, workers*m))
	r.touched = grown(r.touched, workers)
	off := 0
	for w := range workers {
		lo, hi := par.Range(r.n, workers, w)
		c := min(m, hi-lo)
		r.touched[w] = r.order[off : off+c : off+c]
		off += c
	}
}

// Bytes reports the heap bytes r holds: the per-chunk buckets, the
// first-touch marks (dropped once a plan has found its lists) and the
// touched-label lists.
func (r *ChunkRunner[T, L]) Bytes() int64 {
	return SliceBytes(r.buckets) + SliceBytes(r.seen) + SliceBytes(r.order) + SliceBytes(r.touched)
}

// Plan fixes r to one label vector for a planned pipeline: it binds
// (op, labels, m) over the team's workers and finds every chunk's
// touched labels once, on the team, so runs skip the discovery.
// labels must already be validated against m and stay unchanged.
func (r *ChunkRunner[T, L]) Plan(team *par.Team, op Op[T], labels []L, m int) {
	r.bind(op, labels, m, team.Workers())
	r.pass = passFind
	team.Run(r.body)
	r.fixed = true
	r.seen = nil // only discovery reads it
}

// Run evaluates one value vector: passes 1+2 on the team, the merge
// into red on the calling goroutine, then, when multi is non-nil, the
// offset apply on the team. multi == nil is a reduce-only run. A panic
// anywhere, merge included, comes back as an *EnginePanicError naming
// the pass, and cfg.Ctx cancels the run within cancelStride elements.
//
//mp:hotpath
func (r *ChunkRunner[T, L]) Run(team *par.Team, values, multi, red []T, cfg Config) (err error) {
	phase := PhaseChunkLocal
	defer recoverEnginePanic(r.engine, &phase, &err)
	r.start(cfg)
	defer r.finish()
	r.values, r.multi = values, multi
	if err := r.teamRound(team, passLocal); err != nil {
		return err
	}
	phase = PhaseChunkMerge
	if err := ctxErr(cfg.Ctx); err != nil {
		return err
	}
	r.merge(red)
	if multi == nil || r.workers == 1 {
		return nil
	}
	phase = PhaseChunkApply
	if err := ctxErr(cfg.Ctx); err != nil {
		return err
	}
	return r.teamRound(team, passApply)
}

// Batch evaluates each srcs[k] in one team round for the whole batch:
// per vector the local pass, a barrier, the merge on worker 0, a
// barrier and the offset apply. No barrier is needed between one
// vector's apply and the next vector's local pass: apply reads only
// the worker's own offsets and writes only its own range, and the next
// local pass resets only the worker's own buckets. With batchMulti
// dsts[k] receives the prefixes and red is reduction scratch;
// otherwise dsts[k] receives the reductions. The runner must be
// planned (Plan), since the batch does not look for touched labels.
func (r *ChunkRunner[T, L]) Batch(team *par.Team, dsts, srcs [][]T, batchMulti bool, red []T, cfg Config) error {
	r.start(cfg)
	defer r.finish()
	r.dsts, r.srcs, r.batchMulti, r.red = dsts, srcs, batchMulti, red
	if err := r.teamRound(team, passBatch); err != nil {
		return err
	}
	return ctxErr(cfg.Ctx)
}

func (r *ChunkRunner[T, L]) start(cfg Config) {
	r.fast = r.op.fastKind(cfg.FaultHook)
	r.hook, r.ctx = cfg.FaultHook, cfg.Ctx
	r.g.Reset()
}

// finish drops the run's references so an idle runner keeps no caller
// storage alive.
func (r *ChunkRunner[T, L]) finish() {
	r.values, r.multi, r.red, r.dsts, r.srcs = nil, nil, nil, nil, nil
	r.hook, r.ctx = nil, nil
}

func (r *ChunkRunner[T, L]) teamRound(team *par.Team, pass chunkPass) error {
	r.pass = pass
	team.Run(r.body)
	return r.g.First()
}

// interrupted is the workers' stride poll.
func (r *ChunkRunner[T, L]) interrupted() bool {
	return r.g.Interrupted(r.ctx)
}

// round is the team body for chunk w. A recovered panic fails the run
// with the phase that was executing. A batch has a fixed count of two
// inner-barrier arrivals per vector, so an aborting worker drains the
// arrivals it still owes and its siblings stay aligned.
//
//mp:hotpath
func (r *ChunkRunner[T, L]) round(w int, inner *par.Barrier) {
	phase, owed := PhaseChunkLocal, 0
	defer func() {
		if rec := recover(); rec != nil {
			r.g.Fail(newEnginePanic(r.engine, phase, w, rec))
		}
		inner.DrainAwait(owed)
	}()
	switch r.pass {
	case passFind:
		r.find(w)
	case passLocal:
		if !r.fixed {
			r.find(w)
		}
		r.local(w, r.values, r.multi)
	case passApply:
		phase = PhaseChunkApply
		r.apply(w, r.multi)
	case passBatch:
		owed = 2 * len(r.srcs)
		for k, values := range r.srcs {
			multi, red := r.dsts[k], r.red
			if !r.batchMulti {
				multi, red = nil, r.dsts[k]
			}
			phase = PhaseChunkLocal
			if !r.interrupted() {
				r.local(w, values, multi)
			}
			inner.Await()
			owed--
			if w == 0 && !r.interrupted() {
				phase = PhaseChunkMerge
				r.merge(red)
			}
			inner.Await()
			owed--
			if multi != nil && !r.interrupted() {
				phase = PhaseChunkApply
				r.apply(w, multi)
			}
		}
	}
}

// find records chunk w's touched labels in first-touch order, then
// clears the seen marks it set.
//
//mp:hotpath
func (r *ChunkRunner[T, L]) find(w int) {
	lo, hi := par.Range(r.n, r.workers, w)
	seen := r.seen[w*r.m : (w+1)*r.m]
	order := r.touched[w][:cap(r.touched[w])]
	k := 0
	for _, l := range r.labels[lo:hi] {
		if !seen[l] {
			seen[l] = true
			order[k] = l
			k++
		}
	}
	order = order[:k]
	for _, l := range order {
		seen[l] = false
	}
	r.touched[w] = order
}

// local is passes 1+2 for chunk w: reset its touched buckets to the
// identity, then run the serial bucket pass over its range in
// cancelStride segments.
//
//mp:hotpath
func (r *ChunkRunner[T, L]) local(w int, values, multi []T) {
	buckets := r.buckets[w*r.m : (w+1)*r.m]
	for _, l := range r.touched[w] {
		buckets[l] = r.op.Identity
	}
	lo, hi := par.Range(r.n, r.workers, w)
	for seg := lo; seg < hi; seg += cancelStride {
		if r.interrupted() {
			return
		}
		BucketRange(r.op, r.fast, PhaseChunkLocal, values, r.labels, multi, buckets, seg, min(seg+cancelStride, hi), r.hook)
	}
}

// merge is pass 3: the exclusive scan across chunks per label, in
// chunk order. red receives the reductions and each chunk's bucket
// slot its offset.
//
//mp:hotpath
func (r *ChunkRunner[T, L]) merge(red []T) {
	fillIdentity(red, r.op.Identity)
	for w := 0; w < r.workers; w++ {
		bw := r.buckets[w*r.m : (w+1)*r.m]
		for _, l := range r.touched[w] {
			offset := red[l]
			if r.hook != nil {
				r.hook.Combine(PhaseChunkMerge, int(l))
			}
			red[l] = r.op.Combine(red[l], bw[l])
			bw[l] = offset
		}
	}
}

// apply is pass 4 for chunk w: combine the chunk's offsets into its
// prefixes. Chunk 0's offsets are the identity, so it has nothing to
// do.
//
//mp:hotpath
func (r *ChunkRunner[T, L]) apply(w int, multi []T) {
	if w == 0 {
		return
	}
	offsets := r.buckets[w*r.m : (w+1)*r.m]
	lo, hi := par.Range(r.n, r.workers, w)
	for seg := lo; seg < hi; seg += cancelStride {
		if r.interrupted() {
			return
		}
		ApplyRange(r.op, r.fast, r.labels, offsets, multi, seg, min(seg+cancelStride, hi), r.hook)
	}
}

// chunkWorkers resolves the worker count for the chunked engines:
// the shared par.ClampWorkers normalization, further capped by n (one
// element per chunk at minimum).
func chunkWorkers(workers, n int) int {
	workers = par.ClampWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
