package backend

import (
	"fmt"
	"math"
	"runtime/debug"
	"unsafe"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
)

// This file is the planned sharded engine: the scale-out decomposition
// of the sorted scan. Where the sorted engine splits the *permutation*
// across workers and stitches straddling runs with a serial O(S) walk
// (SortedStitch), the sharded engine splits the *element range* across
// S shards, each with its own plan-time counting sort over the shared
// full-length permutation, and combines the per-shard per-label carry
// vectors in ⌈log₂S⌉ synchronous exclusive-prefix exchange rounds
// (core.ShardedExchangeRound). One run is:
//
//   pass 1    every shard scans its own runs reduce-only into its row
//             of the flat S×m carry buffer.
//   exchange  ⌈log₂S⌉ Hillis–Steele rounds over the rows through the
//             team's inner barrier; afterwards row s holds the
//             inclusive fold of shards 0..s.
//   finish    each shard writes the reductions of the labels it owns
//             on the consistent-hash ring (row S−1), and for multi
//             runs rescans its runs seeded from row s−1 — its
//             exclusive carry-in (core.ShardedTiledSeedScan).
//
// The round structure is what a distributed deployment would run over
// a real interconnect; ShardStats exposes the round count and modeled
// bytes per round so the simulated-network mode can price it.

// maxShards caps the shard count: beyond this the per-label carry
// buffers (2·S·m elements) dominate and the exchange stops modeling
// anything a single host would run.
const maxShards = 256

// prepareSharded builds the plan-time sharded structures: the per-shard
// element ranges and counting-sort rows, the placement ring and
// owned-label lists, the flat ping-pong carry buffers, and the worker
// team (one worker per shard). A single shard degenerates to the serial
// sorted scan over the one row.
//
//mp:locked
func (p *Plan[T]) prepareSharded() error {
	if p.n > math.MaxInt32 {
		return fmt.Errorf("%w: n=%d exceeds the sharded engine's %d-element limit", core.ErrBadInput, p.n, math.MaxInt32)
	}
	p.exec = planSharded
	p.multi = make([]T, p.n)
	p.red = make([]T, p.m)
	p.sperm = make([]int32, p.n)
	s := p.cfg.Shards
	if s <= 0 {
		s = core.ChunkWorkers(p.cfg.Workers, p.n)
	}
	s = min(s, maxShards)
	s = min(s, max(p.n, 1))
	p.shardsN = s
	p.workers = s
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
	p.shRing = newHashRing(s)
	p.shOwned = p.shRing.ownedLabels(p.m)
	p.sortedStop = p.interrupted
	if s == 1 {
		// Degenerate single shard: the one row covers the whole vector,
		// so the serial sorted machinery runs unchanged over it.
		p.sstart = p.shStart[0]
		p.prepareShardedTiles()
		return nil
	}
	p.shCarryA = make([]T, s*p.m)
	p.shCarryB = make([]T, s*p.m)
	p.shBody = p.shardedRun
	p.shBatchBody = p.shardedBatch
	p.startTeam(s)
	p.prepareShardedTiles()
	return nil
}

// prepareShardedTiles is prepareTiles for the per-shard index rows. The
// short-segment gate scales with the shard count: each shard sees ~n/S
// elements over the same m labels, so its runs are S× shorter than the
// sorted engine's.
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
	if minSeg := window / 256; minSeg > 1 && p.n < p.m*minSeg*p.shardsN {
		return
	}
	p.tiles = make([]core.TileSegs, p.shardsN)
	for w := range p.tiles {
		p.tiles[w] = core.BuildTileSegs(p.sperm, p.shStart[w], p.shLo[w], p.shHi[w], window)
	}
}

// runSharded evaluates one value vector through the planned sharded
// engine, into p.multi (when withMulti) and p.red.
//
//mp:locked
func (p *Plan[T]) runSharded(values []T, withMulti bool) (err error) {
	defer recoverPlanPanic("plan/sharded", &err)
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
// labels, so labels absent from the shard get the identity — exactly
// the carry vector a remote node would send.
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

// shardedFinish is the post-exchange step for one worker: extract the
// owned labels' reductions from the last row of final, and for multi
// runs rescan the shard's runs seeded from the shard's exclusive
// carry-in (final row w−1; identity for shard 0). The worker's row of
// the spare ping-pong buffer serves as the seed/scratch row — the last
// exchange round's barrier ordered every read of it, so clobbering it
// here is race-free, and each worker touches only its own row (EREW).
//
//mp:locked
func (p *Plan[T]) shardedFinish(w int, final, spare, values, multi, red []T, withMulti bool) {
	last := (p.shardsN - 1) * p.m
	for _, l := range p.shOwned[w] {
		red[l] = final[last+int(l)]
	}
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
				Engine: "plan/sharded", Phase: phase,
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
				Engine: "plan/sharded", Phase: phase,
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

// ShardStats is the sharded plan's exchange geometry: the static round
// count and modeled per-round traffic, plus the rounds the last
// evaluation actually executed (MeasuredRounds — equal to Rounds for a
// completed Run, Rounds×k for a k-vector batch, possibly fewer after an
// interrupt). BytesPerRound models each round's interconnect traffic as
// every participating shard reading one remote row of m elements.
type ShardStats struct {
	Shards         int
	Rounds         int
	MeasuredRounds int
	BytesPerRound  []int
	TotalBytes     int
}

// SimNs prices the carry exchange on a simulated interconnect with the
// given per-round latency (ns) and per-shard bandwidth (bytes/ns, i.e.
// GB/s): rounds·latency plus each round's widest single-shard transfer
// (rows move in parallel, so a round is as slow as one row).
func (s ShardStats) SimNs(latencyNs, bytesPerNs float64) float64 {
	ns := float64(s.Rounds) * latencyNs
	if bytesPerNs <= 0 {
		return ns
	}
	for r, b := range s.BytesPerRound {
		readers := s.Shards - 1<<r
		if readers <= 0 {
			continue
		}
		// One remote row per reading shard, pulled in parallel: the
		// round is as slow as a single row transfer.
		ns += float64(b) / float64(readers) / bytesPerNs
	}
	return ns
}

// ShardStats returns the sharded plan's exchange geometry, or ok=false
// for plans running a different engine.
func (p *Plan[T]) ShardStats() (ShardStats, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exec != planSharded {
		return ShardStats{}, false
	}
	elem := int(unsafe.Sizeof(*new(T)))
	st := ShardStats{Shards: p.shardsN, Rounds: p.shRounds, MeasuredRounds: p.shMeasured}
	for r := 0; r < p.shRounds; r++ {
		b := core.ShardedRoundBytes(p.shardsN, p.m, elem, r)
		st.BytesPerRound = append(st.BytesPerRound, b)
		st.TotalBytes += b
	}
	return st, true
}

// ShardOf returns the shard owning a label's reduction on the
// placement ring, or ok=false for non-sharded plans or out-of-range
// labels.
func (p *Plan[T]) ShardOf(label int) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exec != planSharded || label < 0 || label >= p.m {
		return 0, false
	}
	return p.shRing.Lookup(label), true
}
