package core

import (
	"context"
	"math"
)

// SpineTest selects how the SPINESUMS phase identifies spine elements
// (elements that acquired children during the SPINETREE phase).
type SpineTest int

const (
	// SpineTestMarker marks parents explicitly during ROWSUMS with one
	// extra EREW write per element. Correct for every operator.
	SpineTestMarker SpineTest = iota
	// SpineTestNonzero is the paper's shortcut: an element is treated as
	// a spine element iff its rowsum differs from the identity. Cheaper
	// on a vector machine but only correct when no nonempty combination
	// of same-class same-row values equals the identity (e.g. PLUS over
	// strictly positive values). Requires Op.IsIdentity; see package
	// docs for the failure mode.
	SpineTestNonzero
)

// Config tunes the spinetree engines. The zero value selects sane
// defaults: automatic row length, the robust marker spine test, and
// (for Parallel) one worker per CPU.
type Config struct {
	// RowLength is the grid row length P; 0 selects ceil(sqrt(n)).
	RowLength int
	// SpineTest selects the SPINESUMS participation test.
	SpineTest SpineTest
	// Workers is the goroutine count for Parallel; 0 selects GOMAXPROCS.
	Workers int
	// Shards is the shard count of the sharded backend: the input is
	// partitioned into Shards contiguous element ranges, each scanned by
	// its own worker, with carries combined in ⌈log₂Shards⌉ exchange
	// rounds. 0 derives the count from Workers (one shard per worker).
	// Other engines ignore it.
	Shards int
	// IndirectInit clears buckets through the labels (the theoretical
	// O(n) initialization of paper Figure 3) instead of directly
	// (the paper's §4 practical variant). Results are identical; this
	// exists so benchmarks can quantify the difference.
	IndirectInit bool
	// MutexArb makes the Parallel engine resolve the SPINETREE phase's
	// concurrent writes with striped mutexes instead of atomic stores.
	// Results are identical (any winner is a legal CRCW-ARB outcome);
	// this exists as the arbitration ablation called out in DESIGN.md.
	MutexArb bool
	// Ctx, when non-nil, cancels a run in progress: the Parallel engine
	// polls it at barrier boundaries, Chunked every few thousand
	// elements within a chunk, and the sequential engines at phase
	// boundaries. A cancelled run returns ctx.Err() (context.Canceled
	// or context.DeadlineExceeded). The ParallelCtx/ChunkedCtx wrappers
	// set this field.
	Ctx context.Context
	// FaultHook, when non-nil, receives engine-internal events (combine
	// applications, barrier arrivals, spine tests) for deterministic
	// fault injection; see the FaultHook interface and internal/fault.
	FaultHook FaultHook
	// AutoCal pins the Auto engine's knobs (see AutoCalibration). nil
	// selects the defaults: the one-shot rule for one-shot calls, a
	// build-time trial for auto plans.
	AutoCal *AutoCalibration
}

// arena is the pivot-layout temporary storage of paper §4 (Figures 8/9):
// one block of m+n slots, buckets at [0, m), element i at m+i. The
// spinetree is a single integer vector; the record fields are unpacked
// into separate vectors (structure-of-arrays) exactly as the paper's
// CRAY implementation required.
type arena[T any] struct {
	m, n     int
	grid     Grid
	spine    []int32 // parent arena index
	rowsum   []T
	spinesum []T
	marks    []bool       // backing storage for isSpine, kept across reuses
	isSpine  []bool       // used by SpineTestMarker
	isIdent  func(T) bool // used by SpineTestNonzero
}

// maxArena bounds m+n so arena indices fit an int32, mirroring the
// paper's observation that the spinetree is "a single vector of length
// n+m of integers no larger than n+m".
const maxArena = math.MaxInt32

func newArena[T any](op Op[T], labels []int, m int, cfg Config) (*arena[T], error) {
	a := &arena[T]{}
	if err := prepareArena(a, op, labels, m, cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// prepareArena (re)shapes the arena for one run, growing its vectors
// in place so a reused arena (the Workspace path) allocates nothing
// once warm. Every slot the phases read is rewritten here or during the
// phases themselves, so stale contents from a previous run are
// harmless.
func prepareArena[T any, L Label](a *arena[T], op Op[T], labels []L, m int, cfg Config) error {
	n := len(labels)
	if m+n > maxArena {
		return wrapBadInput("m+n=%d exceeds arena limit %d", m+n, maxArena)
	}
	if cfg.SpineTest == SpineTestNonzero && op.IsIdentity == nil {
		return wrapBadInput("SpineTestNonzero requires Op.IsIdentity (op %q has none)", op.Name)
	}
	a.m, a.n = m, n
	a.grid = NewGrid(n, cfg.RowLength)
	a.spine = grown(a.spine, m+n)
	a.rowsum = grown(a.rowsum, m+n)
	a.spinesum = grown(a.spinesum, m+n)
	if cfg.SpineTest == SpineTestMarker {
		a.marks = grown(a.marks, m+n)
		clear(a.marks)
		a.isSpine = a.marks
		a.isIdent = nil
	} else {
		a.isSpine = nil
		a.isIdent = op.IsIdentity
	}
	initArena(a, op, labels, cfg.IndirectInit)
	return nil
}

// grown returns s resized to n elements, reusing its backing array
// when the capacity suffices. Contents beyond a fresh allocation are
// unspecified; callers overwrite every slot they read.
func grown[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}

// init performs the initialization phase (paper Figure 3): temporary
// fields cleared to the identity and every bucket's spine pointer set to
// itself. Direct initialization touches all m buckets; indirect touches
// only buckets referenced by a label (the paper's theoretical variant,
// preserving O(n+m) vs O(n) space/time trade-offs).
func initArena[T any, L Label](a *arena[T], op Op[T], labels []L, indirect bool) {
	fillIdentity(a.rowsum, op.Identity)
	fillIdentity(a.spinesum, op.Identity)
	if indirect {
		for _, l := range labels {
			a.spine[l] = int32(l)
		}
		return
	}
	for b := 0; b < a.m; b++ {
		a.spine[b] = int32(b)
	}
}

// phaseSpinetree links the elements into per-class spinetrees
// (paper Figure 4, SPINETREE). Rows are processed from the top down;
// within a row all reads happen before all writes, which the sequential
// engine realizes by loop fission — exactly the decomposition the CRAY
// compiler applied (§4.1 loop 1). The sequential "arbitrary winner" of
// the concurrent write is the last element of the row in each class.
func phaseSpinetree[T any, L Label](a *arena[T], labels []L) {
	m := a.m
	for r := a.grid.Rows - 1; r >= 0; r-- {
		lo, hi := a.grid.Row(r)
		for i := lo; i < hi; i++ { // gather: read bucket spines
			a.spine[m+i] = a.spine[labels[i]]
		}
		for i := lo; i < hi; i++ { // scatter: overwrite-and-test
			a.spine[labels[i]] = int32(m + i)
		}
	}
}

// phaseRowsums accumulates each element's value into its parent's
// rowsum (paper Figure 4, ROWSUMS). Sweeping the columns left to right
// visits a parent's children in vector order, so non-commutative
// operators combine correctly; within one column every element has a
// distinct parent (Theorem 1 / Corollary 1), so the step is EREW.
func (a *arena[T]) phaseRowsums(op Op[T], values []T, hook FaultHook) {
	m := a.m
	fast := op.fastKind(hook)
	for c := 0; c < a.grid.P; c++ {
		if a.tryRowsumsCol(fast, values, c, 0, a.grid.ColumnLen(c)) {
			continue
		}
		for i := c; i < a.n; i += a.grid.P {
			p := a.spine[m+i]
			if hook != nil {
				hook.Combine(PhaseRowsums, i)
			}
			a.rowsum[p] = op.Combine(a.rowsum[p], values[i])
			if a.isSpine != nil {
				a.isSpine[p] = true
			}
		}
	}
}

// phaseSpinesums computes the running prefix along each class's spine
// (paper Figure 4, SPINESUMS). Rows are processed bottom to top; each
// spine element forwards spinesum ⊕ rowsum to its parent. At most one
// spine element per class per row exists (Theorem 2), and a spine
// element has at most one spine child (Corollary 2), so every write
// target is unique: EREW.
func (a *arena[T]) phaseSpinesums(op Op[T], test SpineTest, hook FaultHook) {
	m := a.m
	fast := op.fastKind(hook)
	for r := 0; r < a.grid.Rows; r++ {
		lo, hi := a.grid.Row(r)
		if a.trySpinesumsRow(fast, op, test, lo, hi) {
			continue
		}
		for i := lo; i < hi; i++ {
			ok := a.spineElement(m+i, test)
			if hook != nil {
				ok = hook.SpineTest(i, ok)
			}
			if !ok {
				continue
			}
			p := a.spine[m+i]
			if hook != nil {
				hook.Combine(PhaseSpinesums, i)
			}
			a.spinesum[p] = op.Combine(a.spinesum[m+i], a.rowsum[m+i])
		}
	}
}

func (a *arena[T]) spineElement(idx int, test SpineTest) bool {
	if test == SpineTestMarker {
		return a.isSpine[idx]
	}
	return !a.isIdent(a.rowsum[idx])
}

// phaseMultisums distributes the final multiprefix values
// (paper Figure 4, MULTISUMS). Sweeping the columns left to right, each
// element reads its parent's spinesum (the combine of every preceding
// class element) and then appends its own value for the next sibling.
// Column order is vector order within each row, so results arrive in
// vector order; distinct parents per column keep the step EREW.
func (a *arena[T]) phaseMultisums(op Op[T], values, multi []T, hook FaultHook) {
	m := a.m
	fast := op.fastKind(hook)
	for c := 0; c < a.grid.P; c++ {
		if a.tryMultisumsCol(fast, values, multi, c, 0, a.grid.ColumnLen(c)) {
			continue
		}
		for i := c; i < a.n; i += a.grid.P {
			p := a.spine[m+i]
			multi[i] = a.spinesum[p]
			if hook != nil {
				hook.Combine(PhaseMultisums, i)
			}
			a.spinesum[p] = op.Combine(a.spinesum[p], values[i])
		}
	}
}

// reductions finalizes the per-label reductions: each bucket's class
// total is spinesum (rows below the top) combined with rowsum (the top
// row), in that order to preserve vector order (paper §4.2).
func (a *arena[T]) reductions(op Op[T], hook FaultHook) []T {
	red := make([]T, a.m)
	a.reductionsInto(op, hook, red)
	return red
}

// reductionsInto is reductions writing into caller-provided storage
// (the pooled engines' path).
func (a *arena[T]) reductionsInto(op Op[T], hook FaultHook, red []T) {
	if a.tryReductions(op.fastKind(hook), red) {
		return
	}
	for b := 0; b < a.m; b++ {
		if hook != nil {
			hook.Combine(PhaseReduce, b)
		}
		red[b] = op.Combine(a.spinesum[b], a.rowsum[b])
	}
}

// Spinetree computes the multiprefix operation with the paper's
// four-phase algorithm executed sequentially. It performs O(n + m) work
// in O(n + m) space; the point of the sequential engine is bit-exact
// equivalence with Serial for any Grid shape, which the tests verify,
// plus exposure of the intermediate structure for traces.
func Spinetree[T any](op Op[T], values []T, labels []int, m int, cfg Config) (res Result[T], err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return Result[T]{}, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return Result[T]{}, err
	}
	a, err := newArena(op, labels, m, cfg)
	if err != nil {
		return Result[T]{}, err
	}
	phase := PhaseSpinetree
	defer recoverEnginePanic("spinetree", &phase, &err)
	multi := make([]T, len(values))
	var red []T
	phaseSpinetree(a, labels)
	for _, step := range []struct {
		name string
		run  func()
	}{
		{PhaseRowsums, func() { a.phaseRowsums(op, values, cfg.FaultHook) }},
		{PhaseSpinesums, func() { a.phaseSpinesums(op, cfg.SpineTest, cfg.FaultHook) }},
		{PhaseReduce, func() { red = a.reductions(op, cfg.FaultHook) }},
		{PhaseMultisums, func() { a.phaseMultisums(op, values, multi, cfg.FaultHook) }},
	} {
		if err := ctxErr(cfg.Ctx); err != nil {
			return Result[T]{}, err
		}
		phase = step.name
		step.run()
	}
	return Result[T]{Multi: multi, Reductions: red}, nil
}

// SpinetreeReduce computes only the reductions (multireduce, §4.2),
// skipping the MULTISUMS phase entirely — the saving the paper
// quantifies as ~6 of ~7 clocks per element for the final phase.
func SpinetreeReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) (red []T, err error) {
	if err := checkInputs(op, values, labels, m); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	a, err := newArena(op, labels, m, cfg)
	if err != nil {
		return nil, err
	}
	phase := PhaseSpinetree
	defer recoverEnginePanic("spinetree", &phase, &err)
	phaseSpinetree(a, labels)
	phase = PhaseRowsums
	a.phaseRowsums(op, values, cfg.FaultHook)
	phase = PhaseSpinesums
	a.phaseSpinesums(op, cfg.SpineTest, cfg.FaultHook)
	phase = PhaseReduce
	return a.reductions(op, cfg.FaultHook), nil
}
