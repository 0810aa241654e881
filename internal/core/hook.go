package core

// Phase names reported to FaultHook and carried by EnginePanicError.
// The first four are the paper's algorithm phases; the "chunk-*" names
// are the passes of the Chunked engine; "reduce" is the final bucket
// combine of §4.2.
const (
	PhaseSpinetree  = "spinetree"
	PhaseRowsums    = "rowsums"
	PhaseSpinesums  = "spinesums"
	PhaseMultisums  = "multisums"
	PhaseReduce     = "reduce"
	PhaseChunkLocal = "chunk-local"
	PhaseChunkMerge = "chunk-merge"
	PhaseChunkApply = "chunk-apply"
	// The sorted engine's fused segmented scan over the plan-time
	// permutation — also the per-shard scan of the parallel form.
	PhaseSortedScan = "sorted-scan"
	// The parallel sorted engine's passes (sorted plans with more than
	// one worker, and sharded plans): the per-shard reduce-only scan
	// that produces each shard's per-label totals row, the
	// ⌈log₂S⌉-round exclusive-prefix carry exchange over those rows,
	// and the seeded full rescan that folds each shard's carry-in back
	// into its elements.
	PhaseShardedScan     = "sharded-scan"
	PhaseShardedExchange = "sharded-exchange"
	PhaseShardedApply    = "sharded-apply"
)

// FaultHook receives engine-internal events so tests can inject faults
// (panics, stalls, spurious test results) into the hot paths and
// exercise the recovery machinery. A nil hook costs one predictable
// branch per event. Production code leaves Config.FaultHook nil;
// package internal/fault provides deterministic implementations.
//
// Hook methods are called from worker goroutines concurrently and must
// be safe for concurrent use. A hook method may panic (the injection);
// the engines recover it into an *EnginePanicError.
type FaultHook interface {
	// Combine fires immediately before each application of Op.Combine:
	// phase is one of the Phase* constants, i the vector index of the
	// element being combined.
	Combine(phase string, i int)
	// Barrier fires immediately before worker w arrives at a barrier in
	// phase. It may sleep (stall injection) or panic.
	Barrier(phase string, worker int)
	// SpineTest may override the SPINESUMS participation test for
	// element i; return isSpine to leave the result untouched.
	SpineTest(i int, isSpine bool) bool
}
