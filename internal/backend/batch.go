package backend

import (
	"fmt"

	"multiprefix/internal/core"
)

// This file is batched Plan execution: evaluating k value vectors
// against one planned label structure in a single call. Every backend
// supports it — the default is the per-vector loop over Run/Reduce
// with a copy into the caller's destination — and the serial, sorted,
// sharded, chunked and vector plans run fused implementations that
// write each vector's results directly into the caller's storage (no
// copy) and, for the team-parallel plans, drive the worker team once
// for the whole batch instead of once or more per vector.
//
// The fused team bodies synchronize with a fixed number of
// inner-barrier arrivals per vector. That count is deterministic, so a
// worker that aborts (recovered panic, cancellation) drains its
// remaining arrivals with par.Barrier.DrainAwait instead of Drop —
// siblings stay aligned and the team survives for the next call.

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

// SerialBatchCall is the degradation ladder's serial rung on any plan:
// the planned serial pass over the plan's own labels, writing each
// srcs[k]'s prefixes (withMulti) or reductions into dsts[k] under the
// storage rules of RunBatch and ReduceBatch. Like the one-shot serial
// engine it observes no fault hook: c's Ctx binds, c's Hook is
// ignored. It is the same pass a degraded auto plan falls back to.
func (p *Plan[T]) SerialBatchCall(c Call, dsts, srcs [][]T, withMulti bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	defer func(old core.Config) { p.cfg = old }(p.override(Call{Ctx: c.Ctx}))
	if err := p.checkBatch(dsts, srcs, withMulti); err != nil {
		return err
	}
	return p.serialBatch(dsts, srcs, withMulti)
}

// batch is the locked batch body shared by the multi and reduce
// forms: validation, dispatch, and the degraded-auto serial retry.
//
//mp:locked
func (p *Plan[T]) batch(dsts, srcs [][]T, withMulti bool) error {
	if err := p.checkBatch(dsts, srcs, withMulti); err != nil {
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

// checkBatch validates one batch: n values per source, and per
// destination n prefixes (withMulti) or m reductions.
//
//mp:locked
func (p *Plan[T]) checkBatch(dsts, srcs [][]T, withMulti bool) error {
	dstLen := p.m
	if withMulti {
		dstLen = p.n
	}
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
	case planSharded:
		p.shMeasured = 0
		if p.team == nil {
			return p.sortedSerialBatch(dsts, srcs, withMulti)
		}
		return p.teamBatch(dsts, srcs, withMulti)
	case planChunked:
		return p.chunks.Batch(p.team, dsts, srcs, withMulti, p.batchRed(withMulti), p.cfg)
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
// the caller's destinations. It is the one serial rung: a serial plan's
// every run, a degraded auto plan's fallback (batch, Run and Reduce)
// and the service ladder's retry (SerialBatchCall) all run it.
//
//mp:locked
func (p *Plan[T]) serialBatch(dsts, srcs [][]T, withMulti bool) (err error) {
	defer recoverPlanPanic("plan/serial", &err)
	scratch := p.batchRed(withMulti)
	for k := range srcs {
		multi, red := dsts[k], scratch
		if !withMulti {
			multi, red = nil, dsts[k]
		}
		if err := p.serialPass(srcs[k], multi, red); err != nil {
			return err
		}
	}
	return nil
}

// sortedSerialBatch is the fused single-shard sorted batch: one fused
// segmented scan per vector over the plan-time permutation.
//
//mp:locked
func (p *Plan[T]) sortedSerialBatch(dsts, srcs [][]T, withMulti bool) (err error) {
	defer recoverPlanPanic(p.engine, &err)
	fast := p.op.FastKind(p.cfg.FaultHook)
	scratch := p.batchRed(withMulti)
	for k := range srcs {
		// Poll between vectors as well: a short vector never exhausts
		// the in-scan stride credit, so without this check a cancelled
		// batch of small vectors would run to completion.
		if err := ctxDone(p.cfg); err != nil {
			return err
		}
		multi, red := dsts[k], scratch
		if !withMulti {
			multi, red = nil, dsts[k]
		}
		if err := p.scanSingle(fast, srcs[k], multi, red); err != nil {
			return err
		}
	}
	return nil
}

// teamBatch drives one round of the sharded team for the whole batch.
//
//mp:locked
func (p *Plan[T]) teamBatch(dsts, srcs [][]T, withMulti bool) error {
	p.batchRed(withMulti) // shardedBatch reads it as p.red
	p.batchDsts, p.batchSrcs = dsts, srcs
	p.runMulti = withMulti
	p.fast = p.op.FastKind(p.cfg.FaultHook)
	p.guard.Reset()
	defer func() { p.batchDsts, p.batchSrcs = nil, nil }()
	p.team.Run(p.shBatchBody)
	if err := p.guard.First(); err != nil {
		return err
	}
	return ctxDone(p.cfg)
}
