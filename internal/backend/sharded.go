package backend

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
)

// This file is the planned sorted engine in its one parallel form, the
// body that sorted plans and sharded plans both run. Everything
// value-independent happens at plan time: the element range is split
// into S contiguous shards, each with its own stable counting sort over
// the shared full-length permutation, and a worker team of one worker
// per shard. Run, Reduce and batches share one body (the sorted
// executor's batch); per vector it is:
//
//   pass 1    every shard scans its own runs reduce-only into its row
//             of the flat S×m carry buffer.
//   exchange  ⌈log₂S⌉ Hillis–Steele rounds over the rows through the
//             team's inner barrier (core.ShardedExchangeRound);
//             afterwards row s holds the inclusive fold of shards 0..s.
//   finish    shard w copies the reductions of its labels
//             par.Range(m, S, w) out of row S−1, and for multi runs
//             rescans its runs seeded from row w−1 — its exclusive
//             carry-in (core.ShardedSeedScan).
//
// A single shard needs no exchange: the plan runs one fused segmented
// scan over its one index row (scanBatch). The stable sort preserves
// the paper's semantics: same-label elements keep their vector order,
// so every scan applies exactly the combines of Definition 1 in the
// same order as the serial bucket pass.

// maxShards caps the shard count: beyond this the per-label carry
// buffers (2·S·m elements) dominate.
const maxShards = 256

// sortedExec is the sorted family's executor. Its one evaluation body
// is the batch: Run and Reduce are a batch of one (runOne), and a batch
// crosses the inner barrier (2+⌈log₂S⌉)·k − 1 times, 1+⌈log₂S⌉ for one
// vector.
type sortedExec[T any] struct {
	crew                  // one worker per shard; no team for one shard
	engine         string // "plan/sorted" or "plan/sharded", for panics
	op             core.Op[T]
	m              int
	perm           []int32   // the shards' counting-sort permutations
	start          [][]int32 // per-shard run-bound rows, each len m+1
	carryA, carryB []T       // flat S×m totals / exchange ping-pong buffers
	shards, rounds int       // S and ⌈log₂S⌉
	body           func(int, *par.Barrier)
	guard          core.Guard
	stop           func() bool // prebound guard poll for the scans

	// the current batch, read by the worker bodies
	dsts, srcs [][]T
	multi      bool
	red        []T // a prefix batch's reduction scratch
	fast       core.FastOp
	hook       core.FaultHook
	ctx        context.Context
	// measured counts the exchange rounds the last evaluation actually
	// executed (ShardStats.MeasuredRounds, which shard-smoke asserts);
	// worker 0 writes it between barriers.
	measured int
}

// newSortedExec builds the plan-time structures for s shards over p's
// labels: the per-shard counting-sort rows and, for more than one
// shard, the carry buffers and the worker team. name ("sorted" or
// "sharded") is the engine panics and limit errors are attributed to.
//
//mp:locked
func newSortedExec[T any](p *Plan[T], name string, s int) (executor[T], error) {
	if p.n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: n=%d exceeds the %s engine's %d-element limit", core.ErrBadInput, p.n, name, math.MaxInt32)
	}
	s = min(s, maxShards, max(p.n, 1))
	e := &sortedExec[T]{
		engine: "plan/" + name, op: p.op, m: p.m, perm: make([]int32, p.n),
		start: make([][]int32, s), shards: s, rounds: core.ShardedRounds(s),
	}
	for w := range s {
		lo, hi := par.Range(p.n, s, w)
		e.start[w] = make([]int32, p.m+1)
		core.BuildShardedIndexInto(e.perm, e.start[w], p.labels, lo, hi)
	}
	e.stop = e.interrupted
	if s > 1 {
		e.carryA, e.carryB = make([]T, s*p.m), make([]T, s*p.m)
		e.body = e.teamBatch
		startTeam(e, &e.crew, s)
	}
	return e, nil
}

//mp:locked
func (e *sortedExec[T]) run(p *Plan[T], values []T, withMulti bool) (core.Result[T], error) {
	return p.runOne(e, values, withMulti)
}

// batch evaluates the batch: one fused scan per vector for one shard,
// one team round for the whole batch otherwise.
//
//mp:locked
func (e *sortedExec[T]) batch(p *Plan[T], dsts, srcs [][]T, withMulti bool) error {
	e.measured = 0
	e.dsts, e.srcs, e.multi, e.red = dsts, srcs, withMulti, p.batchRed(withMulti)
	e.fast, e.hook, e.ctx = e.op.FastKind(p.cfg.FaultHook), p.cfg.FaultHook, p.cfg.Ctx
	e.guard.Reset()
	defer func() { e.dsts, e.srcs, e.red, e.hook, e.ctx = nil, nil, nil, nil, nil }()
	if e.team == nil {
		return e.scanBatch()
	}
	e.team.Run(e.body)
	if err := e.guard.First(); err != nil {
		return err
	}
	return ctxDone(p.cfg)
}

// interrupted is the scans' stride poll: the guard against the current
// call's context.
func (e *sortedExec[T]) interrupted() bool {
	return e.guard.Interrupted(e.ctx)
}

// scanBatch is the one-shard batch: one fused segmented scan per vector
// over the single index row, polling the context when one is set, and
// between vectors as well — a short vector never exhausts the in-scan
// stride credit.
func (e *sortedExec[T]) scanBatch() (err error) {
	defer recoverPlanPanic(e.engine, &err)
	var stop func() bool
	if e.ctx != nil {
		stop = e.stop
	}
	for k := range e.srcs {
		if e.interrupted() {
			return e.guard.First()
		}
		multi, red := batchOut(e.dsts, k, e.multi, e.red)
		if !core.SortedScanLabels(e.op, e.fast, e.srcs[k], e.perm, e.start[0], multi, red, 0, e.m, e.hook, stop) {
			return e.guard.First()
		}
	}
	return nil
}

// teamBatch is the team body, one round for the whole batch. Per
// vector: pass 1, a barrier, one barrier-separated exchange round per
// distance, and the finish step. From the second vector on, a barrier
// first isolates the previous vector's finish (which reads the final
// carry rows) from this vector's pass 1 (which rewrites buffer A; with
// an even round count the final buffer IS A); the round's end orders
// the last one. That is (2+⌈log₂S⌉)·k − 1 inner arrivals, drained on
// abort so the team survives.
func (e *sortedExec[T]) teamBatch(w int, inner *par.Barrier) {
	total := (2+e.rounds)*len(e.srcs) - 1
	done := 0
	phase := core.PhaseShardedScan
	defer func() {
		if rec := recover(); rec != nil {
			e.guard.Fail(&core.EnginePanicError{
				Engine: e.engine, Phase: phase,
				Worker: w, Value: rec, Stack: debug.Stack(),
			})
		}
		inner.DrainAwait(total - done)
	}()
	for k, values := range e.srcs {
		if k > 0 {
			inner.Await()
			done++
		}
		// pass 1: the shard's runs reduce-only into its carry row; the
		// scan covers all m labels, so labels absent from the shard get
		// the identity
		phase = core.PhaseShardedScan
		if !e.interrupted() {
			core.SortedScanLabels(e.op, e.fast, values, e.perm, e.start[w], nil, e.carryA[w*e.m:(w+1)*e.m], 0, e.m, e.hook, e.stop)
		}
		inner.Await()
		done++
		phase = core.PhaseShardedExchange
		cur, next := e.carryA, e.carryB
		for r := range e.rounds {
			if !e.interrupted() {
				core.ShardedExchangeRound(e.op, e.fast, cur, next, e.m, w, 1<<r, e.hook)
				if w == 0 {
					e.measured++
				}
			}
			inner.Await()
			done++
			cur, next = next, cur
		}
		if !e.interrupted() {
			phase = core.PhaseShardedApply
			multi, red := batchOut(e.dsts, k, e.multi, e.red)
			e.finish(w, cur, next, values, multi, red)
		}
	}
}

// finish is the post-exchange step for one worker: copy the reductions
// of the shard's labels par.Range(m, S, w) out of the last row of final
// — the ranges partition [0, m), so each reduction has exactly one
// writer — and for prefix batches rescan the shard's runs seeded from
// the shard's exclusive carry-in: final row w−1, read in place, or for
// shard 0 the identity, written into the first row of the spare
// ping-pong buffer — the last exchange round's barrier ordered every
// read of it, and only worker 0 touches it (EREW).
func (e *sortedExec[T]) finish(w int, final, spare, values, multi, red []T) {
	last := (e.shards - 1) * e.m
	lo, hi := par.Range(e.m, e.shards, w)
	copy(red[lo:hi], final[last+lo:last+hi])
	if multi == nil {
		return
	}
	var carry []T
	if w == 0 {
		carry = spare[:e.m]
		core.FillIdentity(e.op, carry)
	} else {
		carry = final[(w-1)*e.m : w*e.m]
	}
	core.ShardedSeedScan(e.op, e.fast, values, e.perm, e.start[w], multi, carry, e.hook, e.stop)
}

func (e *sortedExec[T]) bytes() int64 {
	n := core.SliceBytes(e.perm) + core.SliceBytes(e.start) + core.SliceBytes(e.carryA) + core.SliceBytes(e.carryB)
	for w := range e.shards {
		n += core.SliceBytes(e.start[w])
	}
	return n
}

// ShardStats is the exchange geometry of a sorted or sharded plan: the
// shard count, the static ⌈log₂S⌉ round count, and the rounds the last
// evaluation actually executed (MeasuredRounds — equal to Rounds for a
// completed Run, Rounds×k for a k-vector batch, possibly fewer after an
// interrupt).
type ShardStats struct {
	Shards         int
	Rounds         int
	MeasuredRounds int
}

// ShardStats returns the plan's exchange geometry, or ok=false for
// plans running an engine outside the sorted family.
func (p *Plan[T]) ShardStats() (ShardStats, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.ex.(*sortedExec[T])
	if !ok {
		return ShardStats{}, false
	}
	return ShardStats{Shards: e.shards, Rounds: e.rounds, MeasuredRounds: e.measured}, true
}

// sortedIndex returns a one-shard sorted plan's index, which the
// stateful tier borrows instead of building its own.
//
//mp:locked
func (p *Plan[T]) sortedIndex() (perm, start []int32, ok bool) {
	if e, ok := p.ex.(*sortedExec[T]); ok && e.shards == 1 {
		return e.perm, e.start[0], true
	}
	return nil, nil, false
}
