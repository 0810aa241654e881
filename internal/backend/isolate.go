package backend

import (
	"fmt"

	"multiprefix/internal/core"
)

// Batch-abort isolation: a fused batch fails as a unit — one poisoned
// vector (a panicking combine, a cancelled request) aborts the whole
// team round. RunEach and ReduceEach are the split-and-rerun half of
// that story: after an abort, each vector is re-evaluated as a batch
// of one under its own per-call Call, so the failure stays with the
// vector that caused it and every sibling still gets its answer. The
// service layer's coalescer calls this when a cross-request batch
// aborts; the fused attempt's DrainAwait guarantee means the team is
// already healthy again by the time the split runs.

// RunEach evaluates each srcs[k] independently under calls[k],
// writing its multiprefix into dsts[k]. Unlike RunBatch, a failing
// vector does not abort the rest: the returned slice has one error
// slot per vector, nil on success, and dsts[k] is meaningful exactly
// when errs[k] is nil. calls may be nil (no overrides anywhere) or
// must have one entry per vector. Batch-shape validation errors apply
// to the whole call and fill every slot.
func (p *Plan[T]) RunEach(calls []Call, dsts, srcs [][]T) []error {
	return p.each(calls, dsts, srcs, true)
}

// ReduceEach is RunEach for the reductions-only form: dsts[k] has
// length m.
func (p *Plan[T]) ReduceEach(calls []Call, dsts, srcs [][]T) []error {
	return p.each(calls, dsts, srcs, false)
}

func (p *Plan[T]) each(calls []Call, dsts, srcs [][]T, withMulti bool) []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	errs := make([]error, len(srcs))
	err := p.checkBatch(dsts, srcs, withMulti)
	if err == nil && calls != nil && len(calls) != len(srcs) {
		err = fmt.Errorf("%w: %d calls for %d vectors", core.ErrBadInput, len(calls), len(srcs))
	}
	if err != nil {
		for k := range errs {
			errs[k] = err
		}
		return errs
	}
	for k := range srcs {
		d, s := p.one(dsts[k], srcs[k])
		var c Call
		if calls != nil {
			c = calls[k]
		}
		old := p.override(c)
		err := p.runBatch(d, s, withMulti)
		if err != nil && p.degrades(err) {
			err = p.serialBatch(d, s, withMulti)
		}
		p.cfg = old
		errs[k] = err
	}
	p.clearOne()
	return errs
}
