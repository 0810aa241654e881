// Package multiprefix implements the multiprefix operation of
// Sheffler, "Implementing the Multiprefix Operation on Parallel and
// Vector Computers" (CMU-CS-92-173 / SPAA 1993), together with the
// operations it subsumes: multireduce, segmented scans, fetch-and-op,
// enumeration and stable integer ranking.
//
// For values A = (a_0, ..., a_{n-1}) with labels l_i in [0, m) and an
// associative operator ⊕:
//
//	multiprefix sum  s_i = ⊕ { a_j : l_j == l_i, j < i }
//	reduction        r_k = ⊕ { a_j : l_j == k }
//
// Both combine strictly in vector (index) order, so non-commutative
// operators are safe; the first element of each label class receives
// the operator identity.
//
// # Quick start
//
//	values := []int64{1, 2, 1, 2, 1, 1, 2, 3}
//	labels := []int{1, 1, 2, 1, 2, 1, 2, 1}
//	res, err := multiprefix.Compute(multiprefix.AddInt64, values, labels, 4)
//	// res.Multi      = [0 1 0 3 1 5 2 6]
//	// res.Reductions = [0 9 4 0]
//
// Compute picks an engine automatically (serial below a few thousand
// elements, multicore above). The paper's own algorithms are exposed
// for study and measurement: Spinetree (the sequential four-phase
// algorithm), Parallel (barrier-synchronous goroutines with atomic
// CRCW-ARB writes), the PRAM-simulated version (internal/pram) and the
// fully vectorized CRAY Y-MP port on a simulated vector machine
// (internal/vecmp). See DESIGN.md for the complete map.
package multiprefix

import (
	"context"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// Op is a binary associative operator with identity; see the
// predeclared operators below or construct your own.
type Op[T any] = core.Op[T]

// Result carries the multiprefix sums and the per-label reductions.
type Result[T any] = core.Result[T]

// Config tunes the explicit engines; the zero value means "sane
// defaults" (auto row length, robust spine test, GOMAXPROCS workers).
type Config = core.Config

// Engine is any multiprefix implementation; the derived operations
// (SegmentedScan, FetchOp, ...) accept one so callers choose the
// execution strategy.
type Engine[T any] = core.Engine[T]

// ErrBadInput is wrapped by every input-validation failure.
var ErrBadInput = core.ErrBadInput

// EnginePanicError is returned when a panic — typically from a
// user-supplied Op.Combine — was recovered inside an engine. Worker
// goroutines release their barrier before returning, so the process
// survives, no goroutine leaks, and the run fails with this typed
// error instead of crashing.
type EnginePanicError = core.EnginePanicError

// FallbackReport records what a Fallback engine observed during its
// most recent run.
type FallbackReport = core.FallbackReport

// FaultHook receives engine-internal events for deterministic fault
// injection (see Config.FaultHook); production code leaves it nil.
type FaultHook = core.FaultHook

// Predeclared operators. AddInt64 is the multiprefix-PLUS operator the
// paper concentrates on.
var (
	AddInt64 = core.AddInt64
	MulInt64 = core.MulInt64
	MaxInt64 = core.MaxInt64
	MinInt64 = core.MinInt64
	OrInt64  = core.OrInt64
	AndInt64 = core.AndInt64
	XorInt64 = core.XorInt64

	AddFloat64 = core.AddFloat64
	MulFloat64 = core.MulFloat64
	MaxFloat64 = core.MaxFloat64
	MinFloat64 = core.MinFloat64

	AndBool = core.AndBool
	OrBool  = core.OrBool
	XorBool = core.XorBool

	ConcatString = core.ConcatString
)

// AutoCalibration pins the adaptive engine's knobs; see Config.AutoCal.
// Leave it nil for the defaults: one-shot calls follow a fixed rule and
// auto plans choose by a build-time trial.
type AutoCalibration = core.AutoCalibration

// Workspace is a pool of reusable engine state: Acquire a Buffers,
// run any number of pooled computations on it, Release it back. The
// pooled methods perform zero steady-state heap allocations for
// operators with a fast path (int64/float64 add and max).
type Workspace[T any] = core.Workspace[T]

// Buffers is reusable engine state drawn from a Workspace. Not safe
// for concurrent use; results alias internal storage and are valid
// until the next call on the same Buffers or its Release.
type Buffers[T any] = core.Buffers[T]

// NewWorkspace returns an empty Workspace.
func NewWorkspace[T any]() *Workspace[T] { return core.NewWorkspace[T]() }

// Compute runs the multiprefix operation through the "auto" backend:
// serial unless the input is large and the host has the cores for the
// chunked engine (see Auto). For repeated calls on the same labels,
// build a Plan instead (see NewPlan): an auto plan times serial against
// chunked on its own labels and keeps the faster.
func Compute[T any](op Op[T], values []T, labels []int, m int) (Result[T], error) {
	return backend.Compute("auto", op, values, labels, m, Config{})
}

// Reduce runs the multireduce operation (reductions only, paper §4.2)
// through the "auto" backend.
func Reduce[T any](op Op[T], values []T, labels []int, m int) ([]T, error) {
	return backend.Reduce("auto", op, values, labels, m, Config{})
}

// Auto runs the multiprefix operation through the adaptive engine: it
// picks Serial or Chunked per call by a fixed rule — chunked only with
// at least four workers, n above 2^20 (or cfg.AutoCal.SerialMax) and
// m ≤ n — and degrades to the serial reference on an internal failure.
// Invalid input and cancellation are returned as-is.
func Auto[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return core.Auto(op, values, labels, m, cfg)
}

// AutoReduce is the multireduce counterpart of Auto.
func AutoReduce[T any](op Op[T], values []T, labels []int, m int, cfg Config) ([]T, error) {
	return core.AutoReduce(op, values, labels, m, cfg)
}

// AutoChoice reports which engine Auto would run for a problem of n
// elements and m labels under cfg — for tests, tracing and capacity
// planning.
func AutoChoice(n, m int, cfg Config) string {
	return core.AutoChoice(n, m, cfg)
}

// AutoEngine adapts Auto to the Engine signature for the derived
// operations.
func AutoEngine[T any](cfg Config) Engine[T] { return core.AutoEngine[T](cfg) }

// ComputeCtx is Compute under a cancellation context: an already-
// cancelled context returns ctx.Err() before any phase runs, and a
// mid-run cancellation aborts within a few thousand elements. A nil
// context is treated as context.Background().
func ComputeCtx[T any](ctx context.Context, op Op[T], values []T, labels []int, m int) (Result[T], error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result[T]{}, err
		}
	}
	return backend.Compute("auto", op, values, labels, m, Config{Ctx: ctx})
}

// ReduceCtx is Reduce under a cancellation context; a nil context is
// treated as context.Background().
func ReduceCtx[T any](ctx context.Context, op Op[T], values []T, labels []int, m int) ([]T, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return backend.Reduce("auto", op, values, labels, m, Config{Ctx: ctx})
}

// ParallelCtx is Parallel under a cancellation context, polled at
// barrier boundaries.
func ParallelCtx[T any](ctx context.Context, op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return core.ParallelCtx(ctx, op, values, labels, m, cfg)
}

// ChunkedCtx is Chunked under a cancellation context, polled every few
// thousand elements within each chunk.
func ChunkedCtx[T any](ctx context.Context, op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return core.ChunkedCtx(ctx, op, values, labels, m, cfg)
}

// Fallback wraps an engine so that a panic or internal error degrades
// to the serial reference engine instead of failing the request;
// invalid input and cancellation are returned as-is. See
// core.Fallback for the report semantics.
func Fallback[T any](primary Engine[T], report *FallbackReport) Engine[T] {
	return core.Fallback(primary, report)
}

// Serial runs the one-pass reference algorithm (paper Figure 2).
func Serial[T any](op Op[T], values []T, labels []int, m int) (Result[T], error) {
	return core.Serial(op, values, labels, m)
}

// Spinetree runs the paper's four-phase algorithm sequentially — the
// algorithm under study, exposed for verification and tracing.
func Spinetree[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return core.Spinetree(op, values, labels, m, cfg)
}

// Parallel runs the four-phase algorithm on a pool of goroutines in
// barrier-synchronous steps, with the CRCW-ARB concurrent write
// realized by atomic stores.
func Parallel[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return core.Parallel(op, values, labels, m, cfg)
}

// Chunked runs the practical multicore engine: per-worker serial
// passes stitched with an exclusive scan over chunk reductions.
func Chunked[T any](op Op[T], values []T, labels []int, m int, cfg Config) (Result[T], error) {
	return core.Chunked(op, values, labels, m, cfg)
}

// SerialEngine, SpinetreeEngine, ParallelEngine and ChunkedEngine
// adapt the engines to the Engine signature for the derived
// operations.
func SerialEngine[T any]() Engine[T]              { return core.SerialEngine[T]() }
func SpinetreeEngine[T any](cfg Config) Engine[T] { return core.SpinetreeEngine[T](cfg) }
func ParallelEngine[T any](cfg Config) Engine[T]  { return core.ParallelEngine[T](cfg) }
func ChunkedEngine[T any](cfg Config) Engine[T]   { return core.ChunkedEngine[T](cfg) }

// SegmentedScan computes an exclusive segmented scan: for each
// element, the combine of preceding values in its segment; segments
// marks segment starts. Returns per-element scans and per-segment
// totals. (Paper §1: a segmented scan is a multiprefix with one label
// per segment.)
func SegmentedScan[T any](op Op[T], values []T, segments []bool, engine Engine[T]) (scans, totals []T, err error) {
	return core.SegmentedScan(op, values, segments, engine)
}

// FetchOp performs deterministic fetch-and-op (paper §1): cells[a]
// accumulates increments addressed to it, each request receiving the
// pre-update value, in vector order. Mutates cells.
func FetchOp[T any](op Op[T], cells []T, addrs []int, increments []T, engine Engine[T]) ([]T, error) {
	return core.FetchOp(op, cells, addrs, increments, engine)
}

// Enumerate ranks each element within its label class (0, 1, 2, ... in
// vector order) and counts each class — multiprefix-PLUS over ones.
func Enumerate(labels []int, m int, engine Engine[int64]) (ranks, counts []int64, err error) {
	return core.Enumerate(labels, m, engine)
}

// EnumerateIn is Enumerate drawing its ones vector from b's pooled
// storage instead of allocating.
func EnumerateIn(b *Buffers[int64], labels []int, m int, engine Engine[int64]) (ranks, counts []int64, err error) {
	return core.EnumerateIn(b, labels, m, engine)
}

// SegmentedScanIn is SegmentedScan drawing its derived label vector
// from b's pooled storage instead of allocating.
func SegmentedScanIn[T any](b *Buffers[T], op Op[T], values []T, segments []bool, engine Engine[T]) (scans, totals []T, err error) {
	return core.SegmentedScanIn(b, op, values, segments, engine)
}

// CombiningSend performs the Connection Machine's combining send
// (paper §1): values arriving at the same dst cell combine with op, in
// vector order, on top of the cell's existing contents.
func CombiningSend[T any](op Op[T], dst []T, dest []int, values []T, engine Engine[T]) error {
	return core.CombiningSend(op, dst, dest, values, engine)
}

// Beta is CM-Lisp's β operation (paper §1): the combine of the values
// sharing each key, reported only for keys that occur.
func Beta[T any](op Op[T], values []T, keys []int, m int, engine Engine[T]) (map[int]T, error) {
	return core.Beta(op, values, keys, m, engine)
}

// InclusiveMulti converts exclusive multiprefix sums into inclusive
// ones: inclusive_i = multi_i ⊕ a_i.
func InclusiveMulti[T any](op Op[T], multi, values []T) ([]T, error) {
	return core.InclusiveMulti(op, multi, values)
}
