package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// gate is a fault hook that holds the engine round it rides in at its
// first combine until release is closed, so that a test can queue
// submissions behind a round known to be running.
type gate struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gate) Combine(string, int) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
}

func (g *gate) Barrier(string, int) {}

func (g *gate) SpineTest(_ int, isSpine bool) bool { return isSpine }

// newPending builds one queued vector over values for e, with a
// destination of the result shape and a minute to run.
func newPending(e *planEntry, reduce bool, values []int64, hook core.FaultHook) *pending {
	dstLen := e.plan.N()
	if reduce {
		dstLen = e.key.M
	}
	return &pending{
		src:      values,
		dst:      make([]int64, dstLen),
		ctx:      context.Background(),
		hook:     hook,
		deadline: time.Now().Add(time.Minute),
		done:     make(chan outcome, 1),
	}
}

// holdRound starts a one-vector round on e's unpinned group for the
// given result shape, whose engine pass waits at its first combine
// until the returned release is called. It returns once the round is
// inside the engine: from then on the group has a round running and
// every submission to it queues. release lets the round finish and
// returns its outcome; test cleanup releases a round left held. e's
// backend must pass fault hooks to its engine (serial does not).
func holdRound(t *testing.T, s *Server, e *planEntry, reduce bool, values []int64) (release func() outcome) {
	t.Helper()
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	it := newPending(e, reduce, values, g)
	go s.coal.submit(e, reduce, 0, it)
	var (
		once sync.Once
		out  outcome
	)
	release = func() outcome {
		once.Do(func() {
			close(g.release)
			out = <-it.done
		})
		return out
	}
	t.Cleanup(func() { release() })
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("held round never reached the engine")
	}
	return release
}

// waitQueued blocks until want vectors are queued behind the running
// round of e's unpinned group for the given result shape.
func waitQueued(t *testing.T, s *Server, e *planEntry, reduce bool, want int) {
	t.Helper()
	k := groupKey{plan: e.plan, reduce: reduce}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.coal.mu.Lock()
		queued := 0
		if g := s.coal.groups[k]; g != nil {
			queued = len(g.items)
		}
		s.coal.mu.Unlock()
		if queued >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d vectors queued after 5s", queued, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// groupCount is the number of groups with a round running.
func groupCount(s *Server) int {
	s.coal.mu.Lock()
	defer s.coal.mu.Unlock()
	return len(s.coal.groups)
}

// pinPlan acquires the sum plan for labels on backendName from s's
// cache, as a request naming them would, and pins it until test
// cleanup.
func pinPlan(t *testing.T, s *Server, backendName string, labels []int, m int) *planEntry {
	t.Helper()
	e, err := acquireLabels(s.cache, context.Background(), backendName, core.AddInt64, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.cache.release(e) })
	return e
}

// coalInputs builds a server, a pinned plan entry on backendName and
// the serial reference answer for the shared test input.
func coalInputs(t *testing.T, opts Options, backendName string, n, m int) (*Server, *planEntry, []int64, core.Result[int64]) {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	labels, values := refInputs(n, m)
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	return s, pinPlan(t, s, backendName, labels, m), values, want
}

// checkOutcome fails unless out is a clean answer that shared its
// round with coalesced vectors and it.dst holds the reference.
func checkOutcome(t *testing.T, name string, it *pending, out outcome, reduce bool, coalesced int, want core.Result[int64]) {
	t.Helper()
	ref := want.Multi
	if reduce {
		ref = want.Reductions
	}
	if out.err != nil || out.fallback || out.coalesced != coalesced {
		t.Fatalf("%s: outcome %+v, want a clean answer coalesced %d", name, out, coalesced)
	}
	for i := range ref {
		if it.dst[i] != ref[i] {
			t.Fatalf("%s: dst[%d] = %d, want %d", name, i, it.dst[i], ref[i])
		}
	}
}

// TestSoloRoundInline pins the group-commit fast path: a request on an
// idle group runs its round on the submitting goroutine, so its outcome
// is already delivered when submit returns, and the group is gone
// again once that round found nothing queued behind it.
func TestSoloRoundInline(t *testing.T) {
	s, e, values, want := coalInputs(t, Options{}, "chunked", 512, 9)
	for _, reduce := range []bool{false, true} {
		it := newPending(e, reduce, values, nil)
		s.coal.submit(e, reduce, 0, it)
		select {
		case out := <-it.done:
			checkOutcome(t, "solo", it, out, reduce, 1, want)
		default:
			t.Fatalf("reduce=%v: submit returned before the idle group's round delivered", reduce)
		}
		if n := groupCount(s); n != 0 {
			t.Fatalf("reduce=%v: %d groups left after a solo round", reduce, n)
		}
	}
}

// TestCoalescerRounds drives the queue behind a running round: vectors
// submitted while a round runs wait for it, then run in FIFO rounds of
// at most BatchCap; a request larger than BatchCap on an idle group
// runs its first BatchCap vectors inline and the rest on a runner.
func TestCoalescerRounds(t *testing.T) {
	const batchCap = 4
	t.Run("queued behind a round", func(t *testing.T) {
		s, e, values, want := coalInputs(t, Options{BatchCap: batchCap}, "chunked", 1024, 13)
		release := holdRound(t, s, e, false, values)
		items := make([]*pending, 2*batchCap+1)
		for i := range items {
			items[i] = newPending(e, false, values, nil)
		}
		s.coal.submit(e, false, 0, items[:3]...) // one batch request
		for _, it := range items[3:] {
			s.coal.submit(e, false, 0, it)
		}
		for i, it := range items {
			select {
			case out := <-it.done:
				t.Fatalf("vector %d delivered behind a running round: %+v", i, out)
			default:
			}
		}
		if out := release(); out.err != nil || out.coalesced != 1 {
			t.Fatalf("held round: %+v", out)
		}
		for i, it := range items {
			coalesced := batchCap
			if i >= 2*batchCap {
				coalesced = 1
			}
			checkOutcome(t, "queued", it, <-it.done, false, coalesced, want)
		}
		s.coal.wait()
		if n := groupCount(s); n != 0 {
			t.Fatalf("%d groups left once the runner drained", n)
		}
		if st := s.Stats(); st.FusedRounds != 4 || st.FusedMembers != 1+uint64(len(items)) {
			t.Fatalf("rounds %d members %d, want 4 and %d", st.FusedRounds, st.FusedMembers, 1+len(items))
		}
	})
	t.Run("request over BatchCap", func(t *testing.T) {
		s, e, values, want := coalInputs(t, Options{BatchCap: batchCap}, "chunked", 512, 9)
		items := make([]*pending, batchCap+2)
		for i := range items {
			items[i] = newPending(e, true, values, nil)
		}
		s.coal.submit(e, true, 0, items...)
		for i, it := range items[:batchCap] {
			select {
			case out := <-it.done:
				checkOutcome(t, "inline", it, out, true, batchCap, want)
			default:
				t.Fatalf("vector %d of the inline round not delivered when submit returned", i)
			}
		}
		for _, it := range items[batchCap:] {
			checkOutcome(t, "runner", it, <-it.done, true, len(items)-batchCap, want)
		}
		s.coal.wait()
		if n := groupCount(s); n != 0 {
			t.Fatalf("%d groups left once the runner drained", n)
		}
	})
}

// TestCoalescedPanicIsolation fuses one poisoned vector with three
// clean ones behind a held round and asserts the ladder keeps the
// failure with the vector that caused it: the fused round splits, the
// clean vectors answer from their own reruns and the poisoned one
// from the serial rung.
func TestCoalescedPanicIsolation(t *testing.T) {
	s, e, values, want := coalInputs(t, Options{}, "chunked", 4096, 31)
	release := holdRound(t, s, e, false, values)
	poison := fault.New()
	poison.PanicEvent = fault.EventCombine
	items := make([]*pending, 4)
	for i := range items {
		var hook core.FaultHook
		if i == 2 {
			hook = poison
		}
		items[i] = newPending(e, false, values, hook)
	}
	s.coal.submit(e, false, 0, items...)
	if out := release(); out.err != nil {
		t.Fatalf("held round: %v", out.err)
	}
	for i, it := range items {
		out := <-it.done
		if i == 2 {
			if out.err != nil || !out.fallback {
				t.Fatalf("poisoned vector: %+v, want a serial fallback", out)
			}
			out.fallback = false
		}
		checkOutcome(t, "co-batched", it, out, false, 1, want)
	}
	st := s.Stats()
	if st.SplitRounds != 1 || st.SerialFallbacks != 1 || st.EnginePanics == 0 {
		t.Fatalf("ladder counters: split %d fallbacks %d panics %d", st.SplitRounds, st.SerialFallbacks, st.EnginePanics)
	}
}
