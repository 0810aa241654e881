package backend

import (
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
// the shared full-length permutation, a cache tiling of each shard's
// scan where it pays, and a worker team of one worker per shard. One
// run is:
//
//   pass 1    every shard scans its own runs reduce-only into its row
//             of the flat S×m carry buffer.
//   exchange  ⌈log₂S⌉ Hillis–Steele rounds over the rows through the
//             team's inner barrier (core.ShardedExchangeRound);
//             afterwards row s holds the inclusive fold of shards 0..s.
//   finish    shard w copies the reductions of its labels
//             par.Range(m, S, w) out of row S−1, and for multi runs
//             rescans its runs seeded from row w−1 — its exclusive
//             carry-in (core.ShardedTiledSeedScan).
//
// A single shard needs no exchange: the plan runs one fused segmented
// scan over its one index row (scanSingle). The stable sort preserves
// the paper's semantics: same-label elements keep their vector order,
// so every scan applies exactly the combines of Definition 1 in the
// same order as the serial bucket pass.

// maxShards caps the shard count: beyond this the per-label carry
// buffers (2·S·m elements) dominate.
const maxShards = 256

// prepareSharded builds the plan-time structures for s shards: the
// per-shard element ranges and counting-sort rows, the tiling, and —
// for more than one shard — the flat ping-pong carry buffers and the
// worker team. name ("sorted" or "sharded") is the engine panics and
// limit errors are attributed to.
//
//mp:locked
func (p *Plan[T]) prepareSharded(name string, s int) error {
	if p.n > math.MaxInt32 {
		return fmt.Errorf("%w: n=%d exceeds the %s engine's %d-element limit", core.ErrBadInput, p.n, name, math.MaxInt32)
	}
	p.exec = planSharded
	p.engine = "plan/" + name
	p.multi = make([]T, p.n)
	p.red = make([]T, p.m)
	p.sperm = make([]int32, p.n)
	s = min(s, maxShards, max(p.n, 1))
	p.shardsN = s
	p.shRounds = core.ShardedRounds(s)
	p.shLo = make([]int, s)
	p.shHi = make([]int, s)
	p.shStart = make([][]int32, s)
	for w := 0; w < s; w++ {
		lo, hi := par.Range(p.n, s, w)
		p.shLo[w], p.shHi[w] = lo, hi
		row := make([]int32, p.m+1)
		core.BuildShardedIndexInto(p.sperm, row, p.labels, lo, hi)
		p.shStart[w] = row
	}
	p.sortedStop = p.interrupted
	p.prepareShardedTiles()
	if s == 1 {
		return nil
	}
	p.shCarryA = make([]T, s*p.m)
	p.shCarryB = make([]T, s*p.m)
	p.shBody = p.shardedRun
	p.shBatchBody = p.shardedBatch
	p.startTeam(s)
	return nil
}

// prepareShardedTiles builds the plan-time cache tiling of each
// shard's scan when the tiled kernels apply: a monomorphic element
// type, an op with a fast kernel (hook-free runs — a FaultHook demotes
// fast at dispatch and the run takes the untiled generic path), and an
// input large enough to span multiple tile windows. The tiling is
// value-independent, so like the counting sort it happens once per
// plan.
//
//mp:locked
func (p *Plan[T]) prepareShardedTiles() {
	if !core.FastScans[T](p.op.Fast) {
		return
	}
	window := core.TileWindow(p.n, core.AutoTileBytes(p.cfg))
	if window == 0 {
		return
	}
	// Short segments starve the interleave: each tile segment pays
	// fixed chain-setup bookkeeping amortized over its run length, and
	// below ~128 elements per segment (window/256) the untiled kernel
	// wins — measured crossover on the reference host (1.7-2.1x tiled
	// at 128-2048 elements/segment, noise at 64, 0.5-0.95x at 32 and
	// below). Each shard sees ~n/S elements over the same m labels, so
	// the gate scales with the shard count. Test-sized windows (256
	// elements) keep the floor at one element, so forced-tiling tests
	// and fuzzing exercise every segment shape.
	if minSeg := window / 256; minSeg > 1 && p.n < p.m*minSeg*p.shardsN {
		return
	}
	p.tiles = make([]core.TileSegs, p.shardsN)
	for w := range p.tiles {
		p.tiles[w] = core.BuildTileSegs(p.sperm, p.shStart[w], p.shLo[w], p.shHi[w], window)
	}
}

// Tiled reports whether the plan runs the cache-tiled sorted kernels —
// plan metadata for tests and the benchmark harness.
func (p *Plan[T]) Tiled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tiles != nil
}

// tiledRun reports whether this run dispatches to the tiled kernels:
// the plan built tiles and the run's fast kind survived (no FaultHook).
//
//mp:locked
func (p *Plan[T]) tiledRun(fast core.FastOp) bool {
	return p.tiles != nil && core.FastScans[T](fast)
}

// scanSingle is the one-shard scan: one fused segmented scan of values
// over the plan's single index row, polling the context when one is
// set.
//
//mp:locked
func (p *Plan[T]) scanSingle(fast core.FastOp, values, multi, red []T) error {
	var stop func() bool
	if p.cfg.Ctx != nil {
		p.guard.Reset()
		stop = p.sortedStop
	}
	var ok bool
	if p.tiledRun(fast) {
		ok = core.SortedTiledScanLabels(p.op, fast, values, p.sperm, p.shStart[0], multi, red, &p.tiles[0], stop)
	} else {
		ok = core.SortedScanLabels(p.op, fast, values, p.sperm, p.shStart[0], multi, red, 0, p.m, p.cfg.FaultHook, stop)
	}
	if !ok {
		return p.guard.First()
	}
	return nil
}

// runSharded evaluates one value vector into p.multi (when withMulti)
// and p.red.
//
//mp:locked
func (p *Plan[T]) runSharded(values []T, withMulti bool) (err error) {
	defer recoverPlanPanic(p.engine, &err)
	fast := p.op.FastKind(p.cfg.FaultHook)
	p.shMeasured = 0
	if p.team == nil {
		var multi []T
		if withMulti {
			multi = p.multi
		}
		return p.scanSingle(fast, values, multi, p.red)
	}
	p.values = values
	p.runMulti = withMulti
	p.fast = fast
	p.guard.Reset()
	defer func() { p.values = nil }()
	p.team.Run(p.shBody)
	if ferr := p.guard.First(); ferr != nil {
		return ferr
	}
	return ctxDone(p.cfg)
}

// shardedPass1 is pass 1 for one worker: scan the shard's runs
// reduce-only into its row of the carry buffer. The scan covers all m
// labels, so labels absent from the shard get the identity.
//
//mp:locked
func (p *Plan[T]) shardedPass1(w int, values []T) {
	totals := p.shCarryA[w*p.m : (w+1)*p.m]
	if p.tiledRun(p.fast) {
		core.SortedTiledScanLabels(p.op, p.fast, values, p.sperm, p.shStart[w], nil, totals, &p.tiles[w], p.sortedStop)
		return
	}
	core.SortedScanLabels(p.op, p.fast, values, p.sperm, p.shStart[w], nil, totals, 0, p.m, p.cfg.FaultHook, p.sortedStop)
}

// shardedFinish is the post-exchange step for one worker: copy the
// reductions of the shard's labels par.Range(m, S, w) out of the last
// row of final — the ranges partition [0, m), so each reduction has
// exactly one writer — and for multi runs rescan the shard's runs
// seeded from the shard's exclusive carry-in (final row w−1; identity
// for shard 0). The worker's row of the spare ping-pong buffer serves
// as the seed/scratch row — the last exchange round's barrier ordered
// every read of it, so clobbering it here is race-free, and each worker
// touches only its own row (EREW).
//
//mp:locked
func (p *Plan[T]) shardedFinish(w int, final, spare, values, multi, red []T, withMulti bool) {
	last := (p.shardsN - 1) * p.m
	lo, hi := par.Range(p.m, p.shardsN, w)
	copy(red[lo:hi], final[last+lo:last+hi])
	if !withMulti {
		return
	}
	seed := spare[w*p.m : (w+1)*p.m]
	if w == 0 {
		core.FillIdentity(p.op, seed)
	} else {
		copy(seed, final[(w-1)*p.m:w*p.m])
	}
	if p.tiledRun(p.fast) {
		core.ShardedTiledSeedScan(p.op, p.fast, values, p.sperm, p.shStart[w], multi, seed, &p.tiles[w], p.cfg.FaultHook, p.sortedStop)
		return
	}
	core.ShardedSeedScan(p.op, p.fast, values, p.sperm, p.shStart[w], multi, seed, p.cfg.FaultHook, p.sortedStop)
}

// shardedRun is the single-run team body: pass 1, a barrier, one
// barrier-separated exchange round per distance, then the finish step —
// 1+⌈log₂S⌉ inner arrivals, drained on abort so the team survives.
//
//mp:locked
func (p *Plan[T]) shardedRun(w int, inner *par.Barrier) {
	total := 1 + p.shRounds
	done := 0
	phase := core.PhaseShardedScan
	defer func() {
		if rec := recover(); rec != nil {
			p.guard.Fail(&core.EnginePanicError{
				Engine: p.engine, Phase: phase,
				Worker: w, Value: rec, Stack: debug.Stack(),
			})
		}
		inner.DrainAwait(total - done)
	}()
	if !p.interrupted() {
		p.shardedPass1(w, p.values)
	}
	inner.Await()
	done++
	phase = core.PhaseShardedExchange
	cur, next := p.shCarryA, p.shCarryB
	for r := 0; r < p.shRounds; r++ {
		if !p.interrupted() {
			core.ShardedExchangeRound(p.op, p.fast, cur, next, p.m, w, 1<<r, p.cfg.FaultHook)
			if w == 0 {
				p.shMeasured++
			}
		}
		inner.Await()
		done++
		cur, next = next, cur
	}
	if p.interrupted() {
		return
	}
	phase = core.PhaseShardedApply
	p.shardedFinish(w, cur, next, p.values, p.multi, p.red, p.runMulti)
}

// shardedBatch is the fused batch body: the single-run structure per
// vector plus one trailing barrier — 2+⌈log₂S⌉ arrivals per vector.
// The trailing barrier isolates this vector's finish (which reads the
// final carry rows) from the next vector's pass 1 (which rewrites
// buffer A; with an even round count the final buffer IS A).
//
//mp:locked
func (p *Plan[T]) shardedBatch(w int, inner *par.Barrier) {
	total := (2 + p.shRounds) * len(p.batchSrcs)
	done := 0
	phase := core.PhaseShardedScan
	defer func() {
		if rec := recover(); rec != nil {
			p.guard.Fail(&core.EnginePanicError{
				Engine: p.engine, Phase: phase,
				Worker: w, Value: rec, Stack: debug.Stack(),
			})
		}
		inner.DrainAwait(total - done)
	}()
	for k := range p.batchSrcs {
		values := p.batchSrcs[k]
		var multi, red []T
		if p.runMulti {
			multi, red = p.batchDsts[k], p.red
		} else {
			red = p.batchDsts[k]
		}
		phase = core.PhaseShardedScan
		if !p.interrupted() {
			p.shardedPass1(w, values)
		}
		inner.Await()
		done++
		phase = core.PhaseShardedExchange
		cur, next := p.shCarryA, p.shCarryB
		for r := 0; r < p.shRounds; r++ {
			if !p.interrupted() {
				core.ShardedExchangeRound(p.op, p.fast, cur, next, p.m, w, 1<<r, p.cfg.FaultHook)
				if w == 0 {
					p.shMeasured++
				}
			}
			inner.Await()
			done++
			cur, next = next, cur
		}
		if !p.interrupted() {
			phase = core.PhaseShardedApply
			p.shardedFinish(w, cur, next, values, multi, red, p.runMulti)
		}
		inner.Await()
		done++
	}
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
	if p.exec != planSharded {
		return ShardStats{}, false
	}
	return ShardStats{Shards: p.shardsN, Rounds: p.shRounds, MeasuredRounds: p.shMeasured}, true
}
