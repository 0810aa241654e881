package backend

import (
	"fmt"
	"math"
	"runtime/debug"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
)

// This file is the planned sorted engine. Everything value-independent
// happens at plan time: the stable counting sort of the labels (the
// permutation and per-label run bounds), the shard decomposition over
// the worker count, and the worker team with prebound bodies. A run is
// then a fused segmented scan over contiguous runs — gather values
// through the permutation, scan, scatter prefixes back — with
// Blelloch-style carry propagation stitching runs that straddle a
// shard boundary:
//
//   pass 1 (team)    each shard scans its owned runs from the identity;
//                    partial runs at the boundaries record their totals
//                    in w-indexed carry slots.
//   stitch (caller)  O(workers) sequential walk: complete straddling
//                    runs' reductions, derive each shard's carry-in.
//   pass 2 (team)    shards whose leading elements continue an earlier
//                    shard's run rescan just that portion with the
//                    stitched carry-in (skipped when no run straddles,
//                    and entirely for reduce-only runs).
//
// The stable sort preserves the paper's semantics: same-label elements
// keep their vector order, so the scan applies exactly the combines of
// Definition 1 in the same order as the serial bucket pass.

// prepareSorted builds the plan-time sorted structures. With one
// worker the plan runs the serial fused scan; with more it also builds
// the shard decomposition, carry slots and the persistent team.
//
//mp:locked
func (p *Plan[T]) prepareSorted() error {
	if p.n > math.MaxInt32 {
		return fmt.Errorf("%w: n=%d exceeds the sorted engine's %d-element limit", core.ErrBadInput, p.n, math.MaxInt32)
	}
	p.exec = planSorted
	p.multi = make([]T, p.n)
	p.red = make([]T, p.m)
	p.sperm = make([]int32, p.n)
	p.sstart = make([]int32, p.m+1)
	core.BuildSortedIndexInto(p.sperm, p.sstart, p.labels)
	p.sortedStop = p.interrupted
	p.workers = core.ChunkWorkers(p.cfg.Workers, p.n)
	if p.workers > 1 {
		p.shards = core.SortedShards(p.sstart, p.n, p.workers)
		p.leadTotal = make([]T, p.workers)
		p.carryOut = make([]T, p.workers)
		p.carryIn = make([]T, p.workers)
		p.leadClosed = make([]bool, p.workers)
		p.hasTrail = make([]bool, p.workers)
		p.sortedBody = p.sortedScan
		p.sortedApplyBody = p.sortedApply
		p.sortedBatchBody = p.sortedBatch
		p.startTeam(p.workers)
	}
	p.prepareTiles()
	return nil
}

// prepareTiles builds the plan-time cache-tiling of the sorted scan
// when the tiled kernels apply: a monomorphic element type, an op with
// a fast kernel (hook-free runs — a FaultHook demotes fast at dispatch
// and the run takes the untiled generic path), and an input large
// enough to span multiple tile windows. The tiling is value-
// independent, so like the counting sort it happens once per plan.
//
//mp:locked
func (p *Plan[T]) prepareTiles() {
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
	// below). Test-sized
	// windows (256 elements) keep the floor at one element, so
	// forced-tiling tests and fuzzing exercise every segment shape.
	if minSeg := window / 256; minSeg > 1 && p.n < p.m*minSeg {
		return
	}
	if p.team == nil {
		p.tiles = []core.TileSegs{core.BuildTileSegs(p.sperm, p.sstart, 0, p.n, window)}
		return
	}
	p.tiles = make([]core.TileSegs, p.workers)
	for w, sh := range p.shards {
		p.tiles[w] = core.BuildTileSegs(p.sperm, p.sstart, sh.Lo, sh.Hi, window)
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

// scanSingle is the one-worker scan of the sorted plan and of a
// single-shard sharded plan: one fused segmented scan of values over
// the plan's single index row (sperm, sstart), polling the context
// when one is set.
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
		ok = core.SortedTiledScanLabels(p.op, fast, values, p.sperm, p.sstart, multi, red, &p.tiles[0], stop)
	} else {
		ok = core.SortedScanLabels(p.op, fast, values, p.sperm, p.sstart, multi, red, 0, p.m, p.cfg.FaultHook, stop)
	}
	if !ok {
		return p.guard.First()
	}
	return nil
}

// runSorted evaluates one value vector through the planned sorted
// engine, into p.multi (when withMulti) and p.red.
//
//mp:locked
func (p *Plan[T]) runSorted(values []T, withMulti bool) (err error) {
	defer recoverPlanPanic("plan/sorted", &err)
	var multi []T
	if withMulti {
		multi = p.multi
	}
	fast := p.op.FastKind(p.cfg.FaultHook)
	if p.team == nil {
		return p.scanSingle(fast, values, multi, p.red)
	}

	p.values = values
	p.runMulti = withMulti
	p.fast = fast
	p.guard.Reset()
	defer func() { p.values = nil }()
	p.team.Run(p.sortedBody)
	if ferr := p.guard.First(); ferr != nil {
		return ferr
	}
	if ferr := ctxDone(p.cfg); ferr != nil {
		return ferr
	}
	needApply := core.SortedStitch(p.op, p.shards, p.leadTotal, p.carryOut, p.carryIn, p.leadClosed, p.hasTrail, p.red, p.cfg.FaultHook)
	if withMulti && needApply {
		if ferr := ctxDone(p.cfg); ferr != nil {
			return ferr
		}
		p.team.Run(p.sortedApplyBody)
		if ferr := p.guard.First(); ferr != nil {
			return ferr
		}
	}
	return nil
}

// sortedScan is pass 1 for one worker. The body never touches the
// team's inner barrier, so a failed run leaves the team healthy.
//
//mp:locked
func (p *Plan[T]) sortedScan(w int, _ *par.Barrier) {
	defer func() {
		if rec := recover(); rec != nil {
			p.guard.Fail(&core.EnginePanicError{
				Engine: "plan/sorted", Phase: core.PhaseSortedScan,
				Worker: w, Value: rec, Stack: debug.Stack(),
			})
		}
	}()
	var multi []T
	if p.runMulti {
		multi = p.multi
	}
	if p.tiledRun(p.fast) {
		core.SortedTiledShardScan(p.op, p.fast, p.values, p.sperm, p.sstart, multi, p.red,
			&p.tiles[w], p.shards[w], w, p.leadTotal, p.carryOut, p.leadClosed, p.hasTrail,
			p.sortedStop)
		return
	}
	core.SortedShardScan(p.op, p.fast, p.values, p.sperm, p.sstart, multi, p.red,
		p.shards[w], w, p.leadTotal, p.carryOut, p.leadClosed, p.hasTrail,
		p.cfg.FaultHook, p.sortedStop)
}

// sortedApply is pass 2 for one worker: rescan the leading partial
// run's portion with the stitched carry-in. Shards without a leading
// partial idle.
//
//mp:locked
func (p *Plan[T]) sortedApply(w int, _ *par.Barrier) {
	defer func() {
		if rec := recover(); rec != nil {
			p.guard.Fail(&core.EnginePanicError{
				Engine: "plan/sorted", Phase: core.PhaseSortedApply,
				Worker: w, Value: rec, Stack: debug.Stack(),
			})
		}
	}()
	core.SortedLeadApply(p.op, p.fast, p.values, p.sperm, p.sstart, p.multi,
		p.shards[w], w, p.carryIn, p.cfg.FaultHook, p.sortedStop)
}
