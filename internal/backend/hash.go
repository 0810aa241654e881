package backend

import (
	"math/bits"

	"multiprefix/internal/core"
)

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
// A []int and a []int32 vector of the same values get the same key,
// which is LabelSet.Key's for them.
func KeyFor[L core.Label](backendName, opName string, labels []L, m int) Key {
	return Key{
		Backend: backendName,
		Op:      opName,
		N:       len(labels),
		M:       m,
		Digest:  DigestLabels(labels),
	}
}

// The digest runs four lanes, label i in lane i mod 4, each started
// from its own word (SHA-512's first four) so that the lanes are not
// interchangeable. A lane step xors the label in, multiplies by an odd
// constant and rotates: one dependent multiply per label in its lane,
// and the four lanes' multiplies overlap where one chain would wait on
// each. Every step is a bijection of the lane for a given label, and
// for a given lane a different label gives a different lane, so
// vectors that differ in one label end with that label's lane
// different; the fold below then keeps them different.
var digestSeeds = [4]uint64{0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1}

const digestMul = 0x9e3779b97f4a7c15

// digestStep is one lane step over label l.
func digestStep(h, l uint64) uint64 {
	return bits.RotateLeft64((h^l)*digestMul, 29)
}

// digestSum folds the four lanes and the label count into the digest:
// a polynomial in the lanes with odd coefficients (powers of an odd
// constant), so each lane moves the sum by a bijection whatever the
// others hold, and then MurMur3's fmix64 avalanche, also a bijection.
func digestSum(h *[4]uint64, n int) uint64 {
	x := (((h[0]*digestMul+h[1])*digestMul+h[2])*digestMul + h[3]) ^ uint64(n)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// DigestLabels hashes a label vector, one 64-bit word per label in four
// independent lanes (see digestSeeds). A label is read as its int64
// value, so a []int and a []int32 vector of the same values digest
// alike, and vectors that differ in one label always digest
// differently. Deterministic across runs and platforms. NewLabelSet
// computes the same value in its one pass.
func DigestLabels[L core.Label](labels []L) uint64 {
	h := digestSeeds
	i := 0
	for ; i+4 <= len(labels); i += 4 {
		h[0] = digestStep(h[0], uint64(labels[i]))
		h[1] = digestStep(h[1], uint64(labels[i+1]))
		h[2] = digestStep(h[2], uint64(labels[i+2]))
		h[3] = digestStep(h[3], uint64(labels[i+3]))
	}
	for ; i < len(labels); i++ {
		h[i&3] = digestStep(h[i&3], uint64(labels[i]))
	}
	return digestSum(&h, len(labels))
}
