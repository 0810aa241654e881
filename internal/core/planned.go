package core

import "unsafe"

// This file exports the planned-execution primitives the backend
// package's Plan pipeline is built from: one-time validation of a
// label vector, the chunk-partition helper, and the stride-segment
// kernels (bucket pass, offset apply) that the one-shot engines use
// internally. The chunked Plan runs the ChunkRunner itself, and the
// serial Plan runs SerialSegments. Sharing the code, rather than
// letting the backend re-implement the loops, keeps Plan.Run
// bit-identical to the one-shot engines: same iteration order, same
// fast-path dispatch, same fault-hook event stream.

// CancelStride is how many elements a planned or chunked pass
// processes between polls of the cancellation context (see the
// chunked engine's cancelStride).
const CancelStride = cancelStride

// FastKind resolves the monomorphic kernel family usable for one run:
// the operator's declared capability, demoted to FastNone while a
// FaultHook needs to observe every combine.
func (op Op[T]) FastKind(hook FaultHook) FastOp {
	return op.fastKind(hook)
}

// ValidatePlan checks everything about (op, labels, m) that a planned
// pipeline validates once at build time: a usable operator, m >= 0,
// and every label in [0, m). Per-run work then only needs the value
// slice's length.
func ValidatePlan[T any](op Op[T], labels []int, m int) error {
	if !op.Valid() {
		return wrapBadInput("operator has nil Combine")
	}
	if m < 0 {
		return wrapBadInput("m=%d < 0", m)
	}
	for i, l := range labels {
		if l < 0 || l >= m {
			return wrapBadInput("labels[%d]=%d outside [0, %d)", i, l, m)
		}
	}
	return nil
}

// ChunkWorkers resolves the worker count the chunked engines use for
// an n-element input, so a planned pipeline partitions exactly like
// the one-shot engine would.
func ChunkWorkers(workers, n int) int {
	return chunkWorkers(workers, n)
}

// BucketRange runs the serial one-pass bucket algorithm over
// [lo, hi): multi[i] receives the running combine of earlier
// same-label values, buckets[l] accumulates. multi may be nil for
// reduce-only passes; buckets must hold each touched label's running
// value (the identity before the first segment). The monomorphic
// kernel is used when fast allows, otherwise the generic loop emits a
// hook event per combine under phase.
func BucketRange[T any, L Label](op Op[T], fast FastOp, phase string, values []T, labels []L, multi, buckets []T, lo, hi int, hook FaultHook) {
	var seg []T
	if multi != nil {
		seg = multi[lo:hi]
	}
	if tryBucketLoop(fast, values[lo:hi], labels[lo:hi], seg, buckets) {
		return
	}
	if multi != nil {
		for i := lo; i < hi; i++ {
			l := labels[i]
			multi[i] = buckets[l]
			if hook != nil {
				hook.Combine(phase, i)
			}
			buckets[l] = op.Combine(buckets[l], values[i])
		}
		return
	}
	for i := lo; i < hi; i++ {
		l := labels[i]
		if hook != nil {
			hook.Combine(phase, i)
		}
		buckets[l] = op.Combine(buckets[l], values[i])
	}
}

// ApplyRange runs the chunked engine's offset-apply pass over
// [lo, hi): multi[i] = offsets[labels[i]] ⊕ multi[i].
func ApplyRange[T any, L Label](op Op[T], fast FastOp, labels []L, offsets, multi []T, lo, hi int, hook FaultHook) {
	if tryChunkApply(fast, labels, offsets, multi, lo, hi) {
		return
	}
	for i := lo; i < hi; i++ {
		if hook != nil {
			hook.Combine(PhaseChunkApply, i)
		}
		multi[i] = op.Combine(offsets[labels[i]], multi[i])
	}
}

// FillIdentity sets every element of dst to the operator identity —
// the bucket reset a planned pipeline performs per run.
func FillIdentity[T any](op Op[T], dst []T) {
	fillIdentity(dst, op.Identity)
}

// SliceBytes reports the bytes of s's backing array: cap(s) elements
// of E. Plans and runners sum it over their storage (Plan.Bytes).
func SliceBytes[E any](s []E) int64 {
	var e E
	return int64(cap(s)) * int64(unsafe.Sizeof(e))
}
