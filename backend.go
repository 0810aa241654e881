package multiprefix

import (
	"multiprefix/internal/backend"
)

// Backend is a named multiprefix execution strategy from the unified
// registry: one-shot Compute/Reduce, a reusable Plan pipeline, and an
// Engine adapter for the derived operations. See Backends for the
// registered names.
type Backend[T any] = backend.Backend[T]

// Plan is a prepared multiprefix pipeline over one fixed label
// vector: validation and label-structure setup (class counts, chunk
// partitions, the sorted engine's per-shard counting-sort
// permutations, spinetree where the engine allows) happen once, then
// Run/Reduce evaluate any number of value vectors with zero
// steady-state allocations on the portable backends. A sorted plan
// with more than one worker runs exactly what a sharded plan with one
// shard per worker runs: per-shard scans, a ⌈log₂S⌉-round carry
// exchange and a seeded rescan. Results alias plan-owned storage,
// valid until the next call on the same Plan. RunBatch/ReduceBatch
// evaluate k value vectors in one call into caller-owned destinations
// — fused on the serial, sorted, sharded, chunked and vector plans
// (one worker-team round for the whole batch, no result copies), a
// plain loop elsewhere.
//
// A Plan is also a stateful resource: Bind installs a resident value
// vector, after which Update mutates single points and
// QueryPrefix/ReduceLabel/Snapshot answer against the maintained
// state — O(log L) per point, L the point's class length, for
// invertible fast ops (int64/float64 sum) via one Fenwick tree per
// label class, full re-evaluation
// otherwise. Version reports the monotonically increasing state
// identity that Bind and Update advance.
type Plan[T any] = backend.Plan[T]

// UnknownBackendError is returned when a backend name is not in the
// registry; it wraps ErrBadInput and lists the known names.
type UnknownBackendError = backend.UnknownBackendError

// ShardStats describes the carry exchange of a plan on the sorted
// family's parallel body: shard count, the ⌈log₂S⌉ round bound, and the
// rounds a run actually executed. Populated by plans on the "sorted"
// and "sharded" backends; see Plan.ShardStats.
type ShardStats = backend.ShardStats

// Backends lists the registered backend names: "auto" (adaptive,
// default), "serial", "sorted" (segmented scan over a stable
// counting-sort permutation; best planned), "sharded" (the sorted
// engine with Config.Shards shards), "spinetree", "chunked",
// "parallel" (the portable engines), "vector" (the simulated CRAY
// Y-MP port; int64/float64/int32 only) and "pram" (the simulated
// PRAM; int64 multiprefix-PLUS only).
func Backends() []string { return backend.Names() }

// OpenBackend resolves a backend by name for element type T; unknown
// names return *UnknownBackendError.
func OpenBackend[T any](name string) (Backend[T], error) {
	return backend.Open[T](name)
}

// NewPlan opens the named backend and builds a Plan over labels —
// the "plan once, run many" entry point for repeated same-label
// traffic (iterative SpMV, per-pass radix ranking, histogram sweeps).
func NewPlan[T any](backendName string, op Op[T], labels []int, m int, cfg Config) (*Plan[T], error) {
	b, err := backend.Open[T](backendName)
	if err != nil {
		return nil, err
	}
	return b.Plan(op, labels, m, cfg)
}
