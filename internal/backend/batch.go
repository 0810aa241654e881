package backend

import (
	"fmt"
	"runtime/debug"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
)

// This file is batched Plan execution: evaluating k value vectors
// against one planned label structure in a single call. Every backend
// supports it — the default is the per-vector loop over Run/Reduce
// with a copy into the caller's destination — and the serial, sorted,
// chunked and vector plans run fused implementations that write each
// vector's results directly into the caller's storage (no copy) and,
// for the team-parallel plans, drive the worker team once for the
// whole batch instead of once or twice per vector.
//
// The fused team bodies synchronize with exactly two inner-barrier
// arrivals per vector. That count is deterministic, so a worker that
// aborts (recovered panic, cancellation) drains its remaining arrivals
// with par.Barrier.DrainAwait instead of Drop — siblings stay aligned
// and the team survives for the next call.

// RunBatch evaluates each srcs[k] (length n) against the planned label
// structure, writing its per-element multiprefix into dsts[k] (length
// n). Unlike Run, results go to caller-owned storage, so a warm plan
// performs no copies and no allocations; the per-vector reductions are
// computed internally but not returned — use ReduceBatch for them. The
// destination vectors must not overlap each other, the sources, or
// plan storage. On error the contents of dsts are unspecified.
//
//mp:hotpath
func (p *Plan[T]) RunBatch(dsts, srcs [][]T) error {
	return p.RunBatchCall(Call{}, dsts, srcs)
}

// RunBatchCall is RunBatch under per-call overrides: the batch runs
// with c's context and fault hook in place of the plan Config's.
//
//mp:hotpath
func (p *Plan[T]) RunBatchCall(c Call, dsts, srcs [][]T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.batch(dsts, srcs, true)
}

// ReduceBatch evaluates each srcs[k] (length n) against the planned
// label structure, writing its per-label reductions into dsts[k]
// (length m). The same storage and error rules as RunBatch apply.
//
//mp:hotpath
func (p *Plan[T]) ReduceBatch(dsts, srcs [][]T) error {
	return p.ReduceBatchCall(Call{}, dsts, srcs)
}

// ReduceBatchCall is ReduceBatch under per-call overrides.
//
//mp:hotpath
func (p *Plan[T]) ReduceBatchCall(c Call, dsts, srcs [][]T) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(c))
	return p.batch(dsts, srcs, false)
}

// batch is the locked batch body shared by the multi and reduce
// forms: validation, dispatch, and the degraded-auto serial retry.
func (p *Plan[T]) batch(dsts, srcs [][]T, withMulti bool) error {
	dstLen := p.m
	if withMulti {
		dstLen = p.n
	}
	if err := p.checkBatch(dsts, srcs, dstLen); err != nil {
		return err
	}
	err := p.runBatch(dsts, srcs, withMulti)
	if err == nil {
		return nil
	}
	if p.fallback && p.exec != planSerial && !terminalErr(err) {
		return p.serialBatch(dsts, srcs, withMulti)
	}
	return err
}

//mp:locked
func (p *Plan[T]) checkBatch(dsts, srcs [][]T, dstLen int) error {
	if p.closed {
		return fmt.Errorf("%w: batch run on a closed Plan", core.ErrBadInput)
	}
	if len(dsts) != len(srcs) {
		return fmt.Errorf("%w: %d destinations for %d sources", core.ErrBadInput, len(dsts), len(srcs))
	}
	for k := range srcs {
		if len(srcs[k]) != p.n {
			return fmt.Errorf("%w: srcs[%d] has %d values, plan built for %d", core.ErrBadInput, k, len(srcs[k]), p.n)
		}
		if len(dsts[k]) != dstLen {
			return fmt.Errorf("%w: dsts[%d] has length %d, want %d", core.ErrBadInput, k, len(dsts[k]), dstLen)
		}
	}
	return nil
}

// runBatch dispatches one validated batch to the plan's execution
// strategy.
//
//mp:locked
//mp:polls
func (p *Plan[T]) runBatch(dsts, srcs [][]T, withMulti bool) error {
	if len(srcs) == 0 {
		return nil
	}
	switch p.exec {
	case planSerial:
		return p.serialBatch(dsts, srcs, withMulti)
	case planSorted:
		if p.team == nil {
			return p.sortedSerialBatch(dsts, srcs, withMulti)
		}
		return p.teamBatch(p.sortedBatchBody, dsts, srcs, withMulti)
	case planSharded:
		p.shMeasured = 0
		if p.team == nil {
			return p.sortedSerialBatch(dsts, srcs, withMulti)
		}
		return p.teamBatch(p.shBatchBody, dsts, srcs, withMulti)
	case planChunked:
		return p.chunks.Batch(p.team, dsts, srcs, withMulti, p.red, p.cfg)
	case planVector:
		if withMulti {
			return p.vrunBatch(dsts, srcs)
		}
		return p.vreduceBatch(dsts, srcs)
	default:
		// planBuffers, planPram: per-vector evaluation plus a copy into
		// the caller's storage. run/reduce carry their own fallback.
		for k := range srcs {
			if withMulti {
				res, err := p.run(srcs[k])
				if err != nil {
					return err
				}
				copy(dsts[k], res.Multi)
			} else {
				red, err := p.reduce(srcs[k])
				if err != nil {
					return err
				}
				copy(dsts[k], red)
			}
		}
		return nil
	}
}

// serialBatch is the fused serial batch: the planned one-pass bucket
// algorithm per vector, writing prefixes (or reductions) directly into
// the caller's destinations. Also the batch fallback for degraded auto
// plans, which lazily allocates the reduction scratch a buffers- or
// vector-backed plan doesn't otherwise carry.
//
//mp:locked
func (p *Plan[T]) serialBatch(dsts, srcs [][]T, withMulti bool) (err error) {
	defer recoverPlanPanic("plan/serial", &err)
	if withMulti && len(p.red) != p.m {
		p.red = make([]T, p.m)
	}
	for k := range srcs {
		var multi, red []T
		if withMulti {
			multi, red = dsts[k], p.red
		} else {
			red = dsts[k]
		}
		if err := p.serialPass(srcs[k], multi, red); err != nil {
			return err
		}
	}
	return nil
}

// sortedSerialBatch is the fused single-worker sorted batch: one fused
// segmented scan per vector over the plan-time permutation.
//
//mp:locked
func (p *Plan[T]) sortedSerialBatch(dsts, srcs [][]T, withMulti bool) (err error) {
	defer recoverPlanPanic("plan/sorted", &err)
	fast := p.op.FastKind(p.cfg.FaultHook)
	for k := range srcs {
		// Poll between vectors as well: a short vector never exhausts
		// the in-scan stride credit, so without this check a cancelled
		// batch of small vectors would run to completion.
		if err := ctxDone(p.cfg); err != nil {
			return err
		}
		var multi, red []T
		if withMulti {
			multi, red = dsts[k], p.red
		} else {
			red = dsts[k]
		}
		if err := p.scanSingle(fast, srcs[k], multi, red); err != nil {
			return err
		}
	}
	return nil
}

// teamBatch drives one team round for the whole batch.
//
//mp:locked
func (p *Plan[T]) teamBatch(body func(w int, bar *par.Barrier), dsts, srcs [][]T, withMulti bool) error {
	p.batchDsts, p.batchSrcs = dsts, srcs
	p.runMulti = withMulti
	p.fast = p.op.FastKind(p.cfg.FaultHook)
	p.guard.Reset()
	defer func() { p.batchDsts, p.batchSrcs = nil, nil }()
	p.team.Run(body)
	if err := p.guard.First(); err != nil {
		return err
	}
	return ctxDone(p.cfg)
}

// sortedBatch is the fused sorted batch body: for each vector, the
// shard scan, a barrier, the carry stitch on worker 0, a barrier, and
// the carry-in rescan of leading partial runs — two arrivals per
// vector. The needs-apply flag is written by worker 0 between the two
// barriers and read by the others after the second, so the barrier
// orders the handoff; the next vector's shard scan starts only after
// this worker's rescan, so the w-indexed carry slots are never written
// while another shard still reads its own.
//
//mp:locked
func (p *Plan[T]) sortedBatch(w int, inner *par.Barrier) {
	total := 2 * len(p.batchSrcs)
	done := 0
	phase := core.PhaseSortedScan
	defer func() {
		if rec := recover(); rec != nil {
			p.guard.Fail(&core.EnginePanicError{
				Engine: "plan/sorted", Phase: phase,
				Worker: w, Value: rec, Stack: debug.Stack(),
			})
		}
		inner.DrainAwait(total - done)
	}()
	sh := p.shards[w]
	for k := range p.batchSrcs {
		values := p.batchSrcs[k]
		var multi, red []T
		if p.runMulti {
			multi, red = p.batchDsts[k], p.red
		} else {
			red = p.batchDsts[k]
		}
		phase = core.PhaseSortedScan
		if !p.interrupted() {
			if p.tiledRun(p.fast) {
				core.SortedTiledShardScan(p.op, p.fast, values, p.sperm, p.sstart, multi, red,
					&p.tiles[w], sh, w, p.leadTotal, p.carryOut, p.leadClosed, p.hasTrail,
					p.sortedStop)
			} else {
				core.SortedShardScan(p.op, p.fast, values, p.sperm, p.sstart, multi, red,
					sh, w, p.leadTotal, p.carryOut, p.leadClosed, p.hasTrail,
					p.cfg.FaultHook, p.sortedStop)
			}
		}
		inner.Await()
		done++
		if w == 0 {
			phase = core.PhaseSortedStitch
			if !p.interrupted() {
				p.batchNeedApply = core.SortedStitch(p.op, p.shards, p.leadTotal, p.carryOut, p.carryIn, p.leadClosed, p.hasTrail, red, p.cfg.FaultHook)
			}
		}
		inner.Await()
		done++
		if p.runMulti && p.batchNeedApply && !p.interrupted() {
			phase = core.PhaseSortedApply
			core.SortedLeadApply(p.op, p.fast, values, p.sperm, p.sstart, multi,
				sh, w, p.carryIn, p.cfg.FaultHook, p.sortedStop)
		}
	}
}
