package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// pending is one request vector queued for execution: its input, its
// caller-owned destination, the request's context/deadline and chaos
// hook, and the latch the handler waits on.
type pending struct {
	src      []int64
	dst      []int64
	ctx      context.Context
	hook     core.FaultHook
	deadline time.Time
	done     chan outcome // buffered(1): execute never blocks on it
}

// outcome is what the pipeline reports back to the waiting handler.
type outcome struct {
	err error
	// fallback is set when the degradation ladder served this vector
	// from the serial retry rung.
	fallback bool
	// coalesced is how many request vectors shared the fused round.
	coalesced int
}

// groupKey identifies a coalescing group: every pending vector on the
// same plan with the same result shape can share one fused batch.
// Version-pinned requests group by their pin as well — requests pinned
// to different plan state versions must never fuse, since at most one
// of the pins can match the plan at execution time (pin 0 = unpinned).
type groupKey struct {
	plan   *backend.Plan[int64]
	reduce bool
	pin    uint64
}

// group is a coalescing group while one of its rounds runs: vectors
// that arrive meanwhile queue in items for the rounds after it.
type group struct {
	entry *planEntry
	items []*pending
}

// coalescer merges concurrent requests that share a cached plan into
// fused RunBatch/ReduceBatch rounds by group commit. A request whose
// group has no round running runs one at once, on its own goroutine;
// requests that arrive during a round queue, and the finishing round
// hands them to a runner goroutine that executes them in rounds of up
// to BatchCap vectors. This is the paper's batching insight (amortize
// the fixed per-round cost over many vectors) applied across
// requests, with the batch size set by load alone: an idle group runs
// each request alone and at once, a busy one fuses whatever queued
// during its previous round. A group exists only while one of its
// rounds runs; the round that finds its queue empty deletes it.
type coalescer struct {
	s      *Server
	mu     sync.Mutex
	groups map[groupKey]*group
	wg     sync.WaitGroup // counts runner goroutines
}

func newCoalescer(s *Server) *coalescer {
	return &coalescer{s: s, groups: make(map[groupKey]*group)}
}

// submit hands one request's vectors to their group: it queues them
// behind a running round, or else runs the group's first round on the
// caller's goroutine, so a request that fits in one round has every
// outcome delivered when submit returns. The caller must hold a pin
// on entry until it has received on every item's done — that pin is
// what keeps entry.plan's team alive while the group uses it.
func (c *coalescer) submit(entry *planEntry, reduce bool, pin uint64, items ...*pending) {
	k := groupKey{plan: entry.plan, reduce: reduce, pin: pin}
	c.mu.Lock()
	if g := c.groups[k]; g != nil {
		g.items = append(g.items, items...)
		c.mu.Unlock()
		return
	}
	g := &group{entry: entry, items: items}
	c.groups[k] = g
	batch := c.takeLocked(g)
	c.mu.Unlock()

	c.s.execute(entry, reduce, pin, batch)
	if batch = c.next(k, g); batch != nil {
		c.wg.Add(1)
		go c.run(k, g, batch)
	}
}

// wait blocks until every group runner has exited. Callers stop
// submitting first (drain + server shutdown), so this terminates.
func (c *coalescer) wait() { c.wg.Wait() }

// run is a group's runner: it executes batch, then the group's queued
// vectors round by round until the queue is empty.
func (c *coalescer) run(k groupKey, g *group, batch []*pending) {
	defer c.wg.Done()
	for ; batch != nil; batch = c.next(k, g) {
		c.s.execute(g.entry, k.reduce, k.pin, batch)
	}
}

// next takes the group's next round from its queue or, when nothing
// is queued, deletes the group and returns nil.
func (c *coalescer) next(k groupKey, g *group) []*pending {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(g.items) == 0 {
		delete(c.groups, k)
		return nil
	}
	return c.takeLocked(g)
}

// takeLocked removes up to BatchCap vectors from the head of the
// group's queue and returns them. Callers hold c.mu.
func (c *coalescer) takeLocked(g *group) []*pending {
	batch := g.items
	if limit := c.s.opts.BatchCap; len(batch) > limit {
		g.items = batch[limit:]
		return batch[:limit:limit]
	}
	g.items = nil
	return batch
}

// execute runs one fused batch through the degradation ladder:
//
//  1. Vectors whose context is already dead (client gone, deadline
//     passed while queued, chaos cancel) are failed typed, costing no
//     engine time — and, crucially, not poisoning their co-batch.
//  2. The live vectors run as one fused team round under a batch
//     context bounded by the latest member deadline.
//  3. If the fused round aborts, it is split and rerun vector by
//     vector under each request's own context and hook
//     (backend.RunEach), so the failure stays with the vector that
//     caused it. The fused attempt's barrier draining has already
//     left the team healthy.
//  4. A vector whose isolated rerun fails non-terminally (engine
//     panic) is retried once, hook-free, on a cached serial plan —
//     core.Fallback's semantics lifted to the service.
//  5. What remains is a typed error for exactly the affected request.
//
// A version-pinned batch (pin != 0) additionally checks the plan's
// state version at round start: if an update moved the plan past the
// pin while the batch was queued, every member fails typed with
// version_conflict instead of computing against state the caller did
// not ask about.
func (s *Server) execute(e *planEntry, reduce bool, pin uint64, batch []*pending) {
	live := make([]*pending, 0, len(batch))
	for _, it := range batch {
		if err := it.ctx.Err(); err != nil {
			s.countMemberErr(err)
			it.done <- outcome{err: err}
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}
	if pin != 0 {
		if cur := e.plan.Version(); cur != pin {
			err := &backend.VersionConflictError{Pin: pin, Version: cur}
			s.st.versionConflicts.Add(uint64(len(live)))
			for _, it := range live {
				it.done <- outcome{err: err}
			}
			return
		}
	}

	s.st.fusedRounds.Add(1)
	s.st.fusedMembers.Add(uint64(len(live)))
	srcs := make([][]int64, len(live))
	dsts := make([][]int64, len(live))
	var hook core.FaultHook
	latest := live[0].deadline
	for i, it := range live {
		srcs[i], dsts[i] = it.src, it.dst
		if hook == nil {
			hook = it.hook
		}
		if it.deadline.After(latest) {
			latest = it.deadline
		}
	}
	bctx, cancel := context.WithDeadline(s.base, latest)
	call := backend.Call{Ctx: bctx, Hook: hook}
	var err error
	if reduce {
		err = e.plan.ReduceBatchCall(call, dsts, srcs)
	} else {
		err = e.plan.RunBatchCall(call, dsts, srcs)
	}
	cancel()
	if err == nil {
		for _, it := range live {
			it.done <- outcome{coalesced: len(live)}
		}
		return
	}

	// The fused round aborted as a unit; isolate the failure.
	s.st.splitRounds.Add(1)
	calls := make([]backend.Call, len(live))
	for i, it := range live {
		calls[i] = backend.Call{Ctx: it.ctx, Hook: it.hook}
	}
	var errs []error
	if reduce {
		errs = e.plan.ReduceEach(calls, dsts, srcs)
	} else {
		errs = e.plan.RunEach(calls, dsts, srcs)
	}
	for i, it := range live {
		merr := errs[i]
		if merr == nil {
			it.done <- outcome{coalesced: 1}
			continue
		}
		s.notePanic(merr)
		if !backend.Terminal(merr) && !s.opts.NoSerialRetry && e.key.Backend != "serial" {
			if rerr := s.serialRetry(e, reduce, it); rerr == nil {
				s.st.serialFallbacks.Add(1)
				it.done <- outcome{fallback: true, coalesced: 1}
				continue
			}
		}
		s.countMemberErr(merr)
		it.done <- outcome{err: merr}
	}
}

// serialRetry is the ladder's last productive rung: the vector rerun
// as the planned serial pass over the entry's own plan and labels
// (Plan.SerialBatchCall), hook-free but still under the request's own
// context, so deadlines keep binding. It builds and caches no second
// plan.
func (s *Server) serialRetry(e *planEntry, reduce bool, it *pending) error {
	d := [1][]int64{it.dst}
	src := [1][]int64{it.src}
	return e.plan.SerialBatchCall(backend.Call{Ctx: it.ctx}, d[:], src[:], !reduce)
}

func (s *Server) countMemberErr(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.st.deadlineExceeded.Add(1)
	case errors.Is(err, context.Canceled):
		s.st.canceled.Add(1)
	}
}
