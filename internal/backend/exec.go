package backend

import (
	"runtime"

	"multiprefix/internal/core"
	"multiprefix/internal/par"
	"multiprefix/internal/pram"
	"multiprefix/internal/vecmp"
	"multiprefix/internal/vector"
)

// This file is the engine half of a Plan. The Plan is a shell: its
// lock, configuration, labels, result storage, auto fallback and trial,
// and the stateful tier are the same for every engine. Everything an
// engine builds from the labels, and its two evaluation shapes, sit in
// one executor: serialExec, chunkedExec, sortedExec (sharded.go, the
// sorted and sharded backends), vectorExec, buffersExec (spinetree and
// parallel) and pramExec. A plan calls its executor with its lock held
// and itself as the first argument, so an executor reads the current
// call's Config from the shell and keeps no pointer to it: an auto
// plan's Promote can move an executor from one plan to another.
//
// Serial, sorted and vector plans run Run and Reduce as a one-vector
// batch of their own (runOne), so each has one evaluation body.
// Chunked keeps two shapes: its Run makes two team rounds with the
// merge on the calling goroutine, its batch one round with the merge on
// worker 0. The study engines' Run is their own engine, and their batch
// is a loop over it.

// executor is one engine's plan-time state and evaluation bodies.
type executor[T any] interface {
	// run evaluates values once, into the plan's result storage or the
	// executor's own: the prefixes when withMulti, the reductions always.
	run(p *Plan[T], values []T, withMulti bool) (core.Result[T], error)
	// batch evaluates each srcs[k] into dsts[k] (validated: see
	// checkBatch). A prefix batch leaves its reductions in the plan's
	// reduction scratch (batchRed), the last vector's on return.
	batch(p *Plan[T], dsts, srcs [][]T, withMulti bool) error
	// bytes reports the heap bytes the executor holds.
	bytes() int64
	// close releases the executor's worker team, if it has one.
	close()
}

// newExec builds the executor of kind k over p's labels; p is
// unpublished. The simulated machines assume at least one element, so
// an empty plan of theirs runs the (trivially equivalent) serial pass
// once their capability checks pass.
//
//mp:locked
func newExec[T any](p *Plan[T], k kind) (executor[T], error) {
	switch k {
	case kindSorted:
		return newSortedExec(p, "sorted", core.ChunkWorkers(p.cfg.Workers, p.n))
	case kindSharded:
		s := p.cfg.Shards
		if s <= 0 {
			s = core.ChunkWorkers(p.cfg.Workers, p.n)
		}
		return newSortedExec(p, "sharded", s)
	case kindChunked:
		e := &chunkedExec[T]{chunks: core.NewChunkRunner[T, int32]("plan/chunked")}
		startTeam(e, &e.crew, core.ChunkWorkers(p.cfg.Workers, p.n))
		e.chunks.Plan(e.team, p.op, p.labels, p.m)
		return e, nil
	case kindSpinetree, kindParallel:
		return &buffersExec[T]{buf: new(core.Buffers[T]), parallel: k == kindParallel}, nil
	case kindVector:
		var probe []T
		switch any(probe).(type) {
		case []int64:
			return newVectorExec[int64](p)
		case []float64:
			return newVectorExec[float64](p)
		case []int32:
			return newVectorExec[int32](p)
		}
		return nil, errElemType[T](p.backend)
	case kindPram:
		if err := pramCheck(p.backend, p.op); err != nil {
			return nil, err
		}
		if p.n > 0 {
			return pramExec[T]{}, nil
		}
	}
	return serialExec[T]{}, nil
}

// crew is an executor's persistent worker team and the cleanup that
// closes it if the executor is dropped unclosed, so the team's parked
// goroutines do not leak. The cleanup is the executor's, so it moves
// with the executor when Promote swaps one plan's for another's.
type crew struct {
	team    *par.Team
	cleanup runtime.Cleanup
}

// startTeam starts the team of c, the crew that owner embeds.
func startTeam[E any](owner *E, c *crew, workers int) {
	c.team = par.NewTeam(workers)
	c.cleanup = runtime.AddCleanup(owner, func(t *par.Team) { t.Close() }, c.team)
}

func (c *crew) close() {
	if c.team != nil {
		c.cleanup.Stop()
		c.team.Close()
	}
}

// stateless is the bytes and close of an executor with no storage or
// team of its own.
type stateless struct{}

func (stateless) bytes() int64 { return 0 }
func (stateless) close()       {}

// serialExec is the one-pass bucket algorithm: a serial plan's every
// evaluation is serialBatch, the one serial rung.
type serialExec[T any] struct{ stateless }

//mp:locked
func (e serialExec[T]) run(p *Plan[T], values []T, withMulti bool) (core.Result[T], error) {
	return p.runOne(e, values, withMulti)
}

//mp:locked
func (serialExec[T]) batch(p *Plan[T], dsts, srcs [][]T, withMulti bool) error {
	return p.serialBatch(dsts, srcs, withMulti)
}

// chunkedExec is core's ChunkRunner, the one chunked body, with each
// chunk's touched-label list found once at plan time on the team.
type chunkedExec[T any] struct {
	crew
	chunks *core.ChunkRunner[T, int32]
}

//mp:locked
func (e *chunkedExec[T]) run(p *Plan[T], values []T, withMulti bool) (core.Result[T], error) {
	res := p.results(withMulti)
	return res, e.chunks.Run(e.team, values, res.Multi, res.Reductions, p.cfg)
}

//mp:locked
func (e *chunkedExec[T]) batch(p *Plan[T], dsts, srcs [][]T, withMulti bool) error {
	return e.chunks.Batch(e.team, dsts, srcs, withMulti, p.batchRed(withMulti), p.cfg)
}

func (e *chunkedExec[T]) bytes() int64 { return e.chunks.Bytes() }

// vectorExec evaluates a vecmp.Plan whose spinetree was built once —
// the paper's §5.2.1 setup/evaluation split — at the machine element
// type E (== T).
type vectorExec[T any, E vector.Elem] struct {
	stateless
	vp *vecmp.Plan[E]
}

// newVectorExec builds the vector machine's plan over p's labels.
//
//mp:locked
func newVectorExec[E vector.Elem, T any](p *Plan[T]) (executor[T], error) {
	eop, ok := any(p.op).(core.Op[E])
	if !ok {
		return nil, errElemType[T](p.backend)
	}
	if p.n == 0 {
		return serialExec[T]{}, nil
	}
	vp, err := vecmp.NewPlan(vector.NewDefault(), eop, p.labels, p.m, vcfg(p.cfg))
	if err != nil {
		return nil, err
	}
	return &vectorExec[T, E]{vp: vp}, nil
}

//mp:locked
func (e *vectorExec[T, E]) run(p *Plan[T], values []T, withMulti bool) (core.Result[T], error) {
	return p.runOne(e, values, withMulti)
}

// batch passes the batch through by assertion: T == E concretely, so
// [][]T's dynamic type is [][]E.
//
//mp:locked
func (e *vectorExec[T, E]) batch(p *Plan[T], dsts, srcs [][]T, withMulti bool) error {
	if withMulti {
		return e.vp.MultiprefixBatch(any(dsts).([][]E), any(srcs).([][]E), any(p.batchRed(true)).([]E))
	}
	return e.vp.ReduceBatch(any(dsts).([][]E), any(srcs).([][]E))
}

// buffersExec runs spinetree or parallel on a plan-owned pooled
// core.Buffers: those engines' spine structure depends on the
// row-length choice the arena makes, so the arena is rebuilt per run,
// but all storage and the worker team persist.
type buffersExec[T any] struct {
	buf      *core.Buffers[T]
	parallel bool
}

//mp:locked
func (e *buffersExec[T]) run(p *Plan[T], values []T, withMulti bool) (core.Result[T], error) {
	switch {
	case withMulti && e.parallel:
		return core.ParallelIn(e.buf, p.op, values, p.labels, p.m, p.cfg)
	case withMulti:
		return core.SpinetreeIn(e.buf, p.op, values, p.labels, p.m, p.cfg)
	}
	reduce := core.SpinetreeReduceIn[T, int32]
	if e.parallel {
		reduce = core.ParallelReduceIn[T, int32]
	}
	red, err := reduce(e.buf, p.op, values, p.labels, p.m, p.cfg)
	return core.Result[T]{Reductions: red}, err
}

//mp:locked
func (e *buffersExec[T]) batch(p *Plan[T], dsts, srcs [][]T, withMulti bool) error {
	return loopBatch(p, e, dsts, srcs, withMulti)
}

func (e *buffersExec[T]) bytes() int64 { return e.buf.Bytes() }
func (e *buffersExec[T]) close()       {}

// pramExec is the simulated PRAM. The simulator builds its machine per
// run, so a plan amortizes only validation; it exists so study code can
// drive repeated traffic through the same Plan API.
type pramExec[T any] struct{ stateless }

//mp:locked
func (pramExec[T]) run(p *Plan[T], values []T, withMulti bool) (core.Result[T], error) {
	procs := par.ClampWorkers(p.cfg.Workers)
	vs := any(values).([]int64)
	run := pram.RunMultireduce[int32]
	if withMulti {
		run = pram.RunMultiprefix[int32]
	}
	res, err := run(procs, vs, p.labels, p.m, p.cfg.RowLength, 1)
	if err != nil {
		return core.Result[T]{}, err
	}
	out := core.Result[T]{Reductions: any(res.Reductions).([]T)}
	if withMulti {
		out.Multi = any(res.Multi).([]T)
	}
	return out, nil
}

//mp:locked
func (e pramExec[T]) batch(p *Plan[T], dsts, srcs [][]T, withMulti bool) error {
	return loopBatch(p, e, dsts, srcs, withMulti)
}

// loopBatch is the study engines' batch: e's run per vector, copied
// into the caller's storage, the reductions of a prefix batch into the
// plan's reduction scratch. It polls the context between vectors.
//
//mp:locked
func loopBatch[T any](p *Plan[T], e executor[T], dsts, srcs [][]T, withMulti bool) error {
	scratch := p.batchRed(withMulti)
	for k := range srcs {
		if err := ctxDone(p.cfg); err != nil {
			return err
		}
		res, err := e.run(p, srcs[k], withMulti)
		if err != nil {
			return err
		}
		multi, red := batchOut(dsts, k, withMulti, scratch)
		copy(multi, res.Multi)
		copy(red, res.Reductions)
	}
	return nil
}

// batchOut is vector k's destinations in a batch: its prefixes and the
// reduction scratch in a prefix batch, its reductions alone otherwise.
func batchOut[T any](dsts [][]T, k int, withMulti bool, scratch []T) (multi, red []T) {
	if withMulti {
		return dsts[k], scratch
	}
	return nil, dsts[k]
}
