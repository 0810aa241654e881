package backend

import "math/bits"

// Plan construction is O(n log n)-ish work (validation, counting
// sort, shard decomposition) over a label vector that repeat traffic
// sends unchanged; a service caches plans keyed by their full
// construction input. Key is that cache key: the cheap comparable
// part — backend and operator names, shapes, and a 64-bit label
// digest — with the label vector itself left to the cache entry for
// an equality check on hit. The digest alone is not trusted for
// identity: an adversarial client that found a digest collision must
// get a correct answer (a second plan), never another key's plan.

// Key identifies a plan's construction input for caching. Two plans
// built from inputs with equal Keys *and* equal label vectors are
// interchangeable. Key is comparable and so usable as a map key.
//
// Key deliberately covers only the *construction* input — it is
// label-structure identity, not state identity. A plan is also a
// stateful resource (Bind/Update, see incremental.go), and mutating
// resident values must NOT move the plan to a different cache slot:
// the whole point of an incremental update is that the expensive
// label-derived structure is reused. The division of labor is
//
//   - Key: which plan serves this (backend, op, labels, m) — stable
//     across Bind and Update;
//   - Plan.Version: which state of that plan an answer corresponds to
//     — bumped by every Bind and Update, pinned and compared by the
//     service layer (and its request coalescer, which refuses to fuse
//     requests pinned to different versions).
//
// Cache eviction closes the plan and discards resident state with it;
// clients then observe ErrNotBound and must re-Bind, never a silently
// resurrected stale vector.
type Key struct {
	// Backend is the registry name the plan is opened under.
	Backend string
	// Op is the operator name (Op.Name).
	Op string
	// N is the element count, M the label-space size.
	N, M int
	// Digest is DigestLabels of the label vector.
	Digest uint64
}

// KeyFor builds the cache key for a plan over (backend, op, labels, m).
func KeyFor(backendName, opName string, labels []int, m int) Key {
	return Key{
		Backend: backendName,
		Op:      opName,
		N:       len(labels),
		M:       m,
		Digest:  DigestLabels(labels),
	}
}

// DigestLabels hashes a label vector one 64-bit word per label: each
// label is xored in, multiplied by an odd constant and rotated, which
// is one dependent multiply per label where a byte-wise hash takes
// eight, and a final avalanche (MurMur3's fmix64) spreads the last
// labels over every bit. Every step is a bijection of the state for a
// given label, so vectors that differ in one label always digest
// differently. Deterministic across runs and platforms.
func DigestLabels(labels []int) uint64 {
	h := uint64(0x6a09e667f3bcc908)
	for _, l := range labels {
		h = bits.RotateLeft64((h^uint64(l))*0x9e3779b97f4a7c15, 29)
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}
