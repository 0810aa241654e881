// Package par provides small building blocks for barrier-synchronous
// data parallelism: a bounded parallel-for, a reusable pool of workers
// that execute a sequence of synchronous steps, and a cyclic barrier.
//
// The multiprefix algorithm of Sheffler (CMU-CS-92-173) is expressed as a
// sequence of "pardo" steps over rows and columns of a conceptual square.
// PRAM semantics require that, within one step, every read happens before
// every write; the Pool type gives exactly that structure: each step runs
// on all workers, and a barrier separates consecutive steps.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// DefaultWorkers returns the degree of parallelism used when a caller
// passes 0 workers: the number of usable CPUs.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// minWorkerCeiling is the floor of the normalization ceiling: explicit
// requests up to this count are honored even on machines with fewer
// CPUs, so that tests pinning (say) Workers: 4 on a 1-CPU box still
// exercise real goroutine interleavings. Oversubscription at this scale
// costs scheduling, not correctness.
const minWorkerCeiling = 8

// MaxWorkers is the ceiling ClampWorkers normalizes against:
// GOMAXPROCS, with a small floor (minWorkerCeiling) for modest
// deliberate oversubscription.
func MaxWorkers() int {
	if g := runtime.GOMAXPROCS(0); g > minWorkerCeiling {
		return g
	}
	return minWorkerCeiling
}

// ClampWorkers resolves a requested worker count to a sane degree of
// parallelism: zero or negative selects DefaultWorkers (GOMAXPROCS),
// and oversized requests are clamped to MaxWorkers so a stray
// Config{Workers: 1e9} cannot spawn an unbounded goroutine flood. This
// is the single normalization point every engine shares; engines may
// further cap the result by problem shape (n, grid width), never raise
// it.
func ClampWorkers(workers int) int {
	if workers <= 0 {
		return DefaultWorkers()
	}
	if max := MaxWorkers(); workers > max {
		return max
	}
	return workers
}

// For runs fn(lo, hi) on up to workers goroutines, splitting [0, n) into
// contiguous chunks of at least grain elements. It blocks until all chunks
// are done. workers <= 0 means DefaultWorkers(); grain <= 0 means 1.
// When the work fits in a single chunk it runs on the calling goroutine
// with no goroutine overhead.
func For(n, workers, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := n / grain
	if chunks < workers {
		workers = chunks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Range splits [0, n) into parts contiguous chunks and returns the
// bounds of chunk w. Chunk sizes differ by at most one element.
func Range(n, parts, w int) (lo, hi int) {
	return w * n / parts, (w + 1) * n / parts
}

// Barrier is a reusable cyclic barrier for a fixed party count.
// The zero value is not usable; construct with NewBarrier.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	phase   uint64
}

// NewBarrier returns a barrier that releases all goroutines once
// parties of them have called Await.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("par: barrier parties must be >= 1")
	}
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until all parties have reached the barrier, then all are
// released and the barrier resets for the next phase.
func (b *Barrier) Await() {
	b.mu.Lock()
	phase := b.phase
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// DrainAwait arrives at the barrier k more times, doing no work
// between arrivals. It is how a worker that aborts a multi-barrier
// round (recovered panic, cancellation) keeps the remaining phases
// aligned for its siblings without shrinking the barrier — Drop would
// permanently poison a reusable team, while draining leaves it healthy
// for the next round. The worker must know exactly how many Awaits its
// siblings will still perform (deterministic phase counts).
func (b *Barrier) DrainAwait(k int) {
	for ; k > 0; k-- {
		b.Await()
	}
}

// Drop permanently removes one party from the barrier: the departing
// goroutine promises never to call Await again. If the goroutines
// already waiting now form a complete phase, they are released. Drop is
// how a worker aborts a barrier-synchronous computation — after a
// recovered panic or a cancellation — without deadlocking its siblings:
// each departing worker Drops instead of Awaiting, and the remaining
// workers' phases keep completing with the shrunken party count.
func (b *Barrier) Drop() {
	b.mu.Lock()
	if b.parties > 0 {
		b.parties--
	}
	if b.parties > 0 && b.waiting >= b.parties {
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// Pool runs a fixed set of workers that repeatedly execute synchronous
// steps. All workers run the same step function (with their worker id);
// a step does not begin until the previous step has completed on every
// worker. It is the goroutine analogue of a PRAM's lock-step execution.
type Pool struct {
	workers int
	steps   chan func(worker int)
	done    chan struct{}
	wg      sync.WaitGroup
	barrier *Barrier

	mu       sync.Mutex
	panicked error // first *WorkerPanic recovered in the current step
}

// WorkerPanic is the error Pool.Step returns when a worker's step
// function panicked. The panic is recovered inside the worker, which
// still arrives at the step barrier, so the pool stays usable for
// subsequent steps.
type WorkerPanic struct {
	Worker int    // id of the panicking worker
	Value  any    // recovered panic value
	Stack  []byte // stack captured at recovery
}

func (e *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker %d panicked during step: %v", e.Worker, e.Value)
}

// Unwrap exposes the panic value when it was itself an error.
func (e *WorkerPanic) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// NewPool starts workers goroutines waiting for steps.
// workers <= 0 means DefaultWorkers().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	p := &Pool{
		workers: workers,
		steps:   make(chan func(worker int)),
		done:    make(chan struct{}),
		barrier: NewBarrier(workers + 1),
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.run(w)
	}
	return p
}

// Workers reports the pool's degree of parallelism.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) run(worker int) {
	defer p.wg.Done()
	for {
		select {
		case step := <-p.steps:
			p.safeStep(step, worker)
			p.barrier.Await()
		case <-p.done:
			return
		}
	}
}

// safeStep executes one step on one worker, recovering a panic so the
// worker still reaches the step barrier and the pool survives.
func (p *Pool) safeStep(step func(worker int), worker int) {
	defer func() {
		if rec := recover(); rec != nil {
			p.mu.Lock()
			if p.panicked == nil {
				p.panicked = &WorkerPanic{Worker: worker, Value: rec, Stack: debug.Stack()}
			}
			p.mu.Unlock()
		}
	}()
	step(worker)
}

// Step runs fn on every worker and returns when all have finished.
// It must not be called concurrently from multiple goroutines. If any
// worker's fn panicked, the first recovered panic is returned as a
// *WorkerPanic; the pool and its barrier remain usable either way.
func (p *Pool) Step(fn func(worker int)) error {
	for w := 0; w < p.workers; w++ {
		p.steps <- fn
	}
	p.barrier.Await()
	p.mu.Lock()
	err := p.panicked
	p.panicked = nil
	p.mu.Unlock()
	return err
}

// Close shuts the pool down. The pool must be idle (no Step in flight).
func (p *Pool) Close() {
	close(p.done)
	p.wg.Wait()
}

// Team is a persistent set of worker goroutines that repeatedly execute
// a body function in rounds, built for allocation-free steady-state
// engines: the goroutines, both barriers and the body slot are created
// once, so a round costs two gate crossings and zero heap allocations.
//
// A round runs body(w, inner) on every worker; inner is a barrier over
// exactly the team's workers for the body's internal synchronization
// steps. The caller blocks in Run until every worker has finished the
// body.
//
// A body that aborts a round by calling inner.Drop (panic recovery,
// cancellation) permanently shrinks the inner barrier: the team is then
// poisoned and must be Closed and rebuilt — Run reports nothing itself,
// so callers track that condition (the engines do, via their failure
// state).
type Team struct {
	workers int
	gate    *Barrier // workers + 1 (the caller)
	inner   *Barrier // workers only
	body    func(w int, inner *Barrier)
	closed  bool
	exited  sync.WaitGroup // one count per worker, released on exit
}

// NewTeam starts a team of workers goroutines parked at the start gate.
// workers must be >= 1.
func NewTeam(workers int) *Team {
	if workers < 1 {
		panic("par: team workers must be >= 1")
	}
	t := &Team{
		workers: workers,
		gate:    NewBarrier(workers + 1),
		inner:   NewBarrier(workers),
	}
	t.exited.Add(workers)
	for w := 0; w < workers; w++ {
		go t.loop(w)
	}
	return t
}

// Workers reports the team's degree of parallelism.
func (t *Team) Workers() int { return t.workers }

// Inner exposes the team's internal barrier so a body composed of
// several synchronous loops can synchronize between them.
func (t *Team) Inner() *Barrier { return t.inner }

func (t *Team) loop(w int) {
	defer t.exited.Done()
	for {
		t.gate.Await() // start of round (or Close)
		if t.closed {
			return
		}
		t.body(w, t.inner)
		t.gate.Await() // end of round
	}
}

// Run executes one round of body on every worker and blocks until all
// have finished. The body slot is cleared afterwards so an idle team
// retains no reference to the caller's state (letting it be collected).
// Run must not be called concurrently, and not after Close.
func (t *Team) Run(body func(w int, inner *Barrier)) {
	t.body = body
	t.gate.Await() // release the round
	t.gate.Await() // wait for every worker to finish
	t.body = nil
}

// Close shuts the team down and returns once every worker goroutine
// has exited; the team must not be used again. Safe to call with
// workers parked at the start gate (the only state between Runs).
func (t *Team) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.gate.Await() // release the workers into the closed check
	t.exited.Wait()
}
