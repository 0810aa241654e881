package core

import (
	"math/bits"
	"sort"
)

// This file is the cache-tiled, ILP-exposed variant of the sorted
// engine's inner kernels. The untiled fused gather–scan–scatter visits
// values[p] and multi[p] in sorted order, which over the whole vector
// is a random order: every element costs a cache-line fetch from
// wherever the line last landed, the hardware prefetchers see nothing,
// and the whole scan serializes on one accumulator dependency chain.
// Tiling fixes the locality and interleaving fixes the chain:
//
//   tiling        The scan is re-ordered into original-index windows
//                 ("tiles"). Because the counting sort is stable, the
//                 permutation is strictly increasing within each run,
//                 so cutting every run at window boundaries and
//                 processing the pieces window-major preserves the
//                 within-run element order exactly — same combines,
//                 same order — while the values/multi traffic of one
//                 tile stays resident in a fixed cache budget. The cut
//                 points depend only on the labels, so the segment
//                 lists are plan-time structures (TileSegs).
//
//   interleaving  Within one tile, groups of 4 segments — necessarily
//                 4 *different* runs, since a run contributes at most
//                 one segment per tile — advance in lockstep as 4
//                 independent accumulator chains. Different runs never
//                 share an accumulator, so the interleave performs the
//                 same combines in the same per-run order as the
//                 untiled kernel: there is no reassociation anywhere,
//                 and the tiled results are bit-identical to serial for
//                 every operator, type, and value (including float64
//                 NaN propagation, signed zeros, and inexact sums).
//                 The win is throughput: 4 chains hide the combine
//                 latency and keep 4 gather/scatter streams in flight.
//
// (The obvious alternative — splitting one long run into blocks with a
// partial-reduce pass then an exclusive-carry apply pass, as in the
// SIMD prefix-sum literature — was measured and rejected: the second
// pass doubles the gather traffic, which on a bandwidth-bound scan
// costs more than the ILP recovers, and block boundaries reassociate
// float64 addition. Cross-segment interleave is single-pass and
// exact.)
//
// Cross-tile state is the per-run accumulator: red[l] itself carries
// each run between tiles (prefilled with the identity, so empty labels
// come out right; the sharded engine's seeded rescan prefills it with
// the shard's carry-in instead).

// TileSegs is the plan-time tiling of one sorted scan range: each
// segment is the piece of one label's run whose elements fall in one
// original-index window, and segments are ordered window-major. The
// three parallel slices are indexed by segment; TileOff bounds each
// window's segment range.
type TileSegs struct {
	// Label[s] is the run the segment belongs to.
	Label []int32
	// Lo and Hi bound the segment's sorted positions: its elements are
	// perm[Lo[s]:Hi[s]], contiguous in the original index space's
	// window and in vector order (stability).
	Lo, Hi []int32
	// TileOff[k]:TileOff[k+1] is window k's segment range. A run
	// contributes at most one segment per window, so labels are unique
	// within a range — the property that lets the kernels interleave
	// neighboring segments as independent chains.
	TileOff []int32
}

// Segments reports the segment count — plan metadata (the per-run
// segment loop overhead is proportional to it).
func (ts *TileSegs) Segments() int { return len(ts.Label) }

// DefaultTileBytes is the per-tile cache budget unless Config.AutoCal
// pins another: a quarter of a typical per-core L2.
// Measured on the reference host, a window sized to the whole L2
// thrashes it (the streamed perm and the label traffic need room too);
// L2/4 was the broad optimum.
const DefaultTileBytes = 1 << 19

// tiledElemBytes is the windowed working set per original index: the
// values and multi elements of the monomorphic kernels (8 bytes each).
const tiledElemBytes = 16

// TileWindow returns the original-index window size (elements, a power
// of two) that fits a tile's windowed working set in budgetBytes, or 0
// when n spans fewer than four windows — the signal that tiling would
// add bookkeeping (window cuts double the segment count, the grouping
// pass touches every run) without changing locality enough to pay for
// it, and the untiled kernels should run instead. The four-window floor
// is measured: at two windows the tiled kernel lost ~25% to untiled on
// the reference host, at eight it won 2-5x.
func TileWindow(n, budgetBytes int) int {
	if budgetBytes <= 0 {
		budgetBytes = DefaultTileBytes
	}
	w := budgetBytes / tiledElemBytes
	if w < 1 {
		w = 1
	}
	// Round down to a power of two so window membership is a shift.
	w = 1 << (bits.Len(uint(w)) - 1)
	if n <= 3*w {
		return 0
	}
	return w
}

// BuildTileSegs cuts the runs intersecting sorted positions [lo, hi)
// at original-index window boundaries and returns the pieces ordered
// window-major (within a window, in run order). window must be a power
// of two. The walk is O(hi-lo + runs); called at plan time.
func BuildTileSegs(perm, start []int32, lo, hi, window int) TileSegs {
	shift := uint(bits.TrailingZeros(uint(window)))
	nWin := (len(perm) + window - 1) / window
	cnt := make([]int32, nWin+1)
	walkTileSegs(perm, start, lo, hi, shift, func(l int32, s, e, k int) {
		cnt[k+1]++
	})
	for k := 0; k < nWin; k++ {
		cnt[k+1] += cnt[k]
	}
	total := int(cnt[nWin])
	off := make([]int32, nWin+1)
	copy(off, cnt)
	ts := TileSegs{
		Label:   make([]int32, total),
		Lo:      make([]int32, total),
		Hi:      make([]int32, total),
		TileOff: off,
	}
	walkTileSegs(perm, start, lo, hi, shift, func(l int32, s, e, k int) {
		at := cnt[k]
		cnt[k] = at + 1
		ts.Label[at] = l
		ts.Lo[at] = int32(s)
		ts.Hi[at] = int32(e)
	})
	return ts
}

// walkTileSegs enumerates the (label, sorted-range, window) segments of
// [lo, hi) in run order; the window-major order is imposed by the
// counting sort in BuildTileSegs. Within one run the permutation is
// strictly increasing (stability), so each run's pieces appear in
// ascending window order and the window-major execution preserves the
// run's element order.
func walkTileSegs(perm, start []int32, lo, hi int, shift uint, emit func(l int32, s, e, k int)) {
	m := len(start) - 1
	l := sort.Search(m, func(i int) bool { return int(start[i+1]) > lo })
	for ; l < m && int(start[l]) < hi; l++ {
		s := max(int(start[l]), lo)
		e := min(int(start[l+1]), hi)
		for i := s; i < e; {
			k := int(perm[i]) >> shift
			j := i + 1
			for j < e && int(perm[j])>>shift == k {
				j++
			}
			emit(int32(l), i, j, k)
			i = j
		}
	}
}

// fillFastIdent prefills a reduction range with the monomorphic
// identity; the tiled kernels accumulate runs into red across tiles,
// so the slots must start at the identity (which also makes empty
// labels come out right, matching the untiled per-run scan).
//
//mp:hotpath
func fillFastIdent[E fastElem](s []E, fast FastOp) {
	id := fastIdent[E](fast)
	if id == 0 {
		clear(s)
		return
	}
	for i := range s {
		s[i] = id
	}
}

// tiledGroup4 advances 4 segment chains through their segments: in
// lockstep over the common prefix length (4 gather/scatter streams in
// flight), then each chain's in-order tail. Chain j scans
// perm[sj : ej], threading its own accumulator. The chains belong to 4
// different runs (TileSegs guarantees label uniqueness within a tile),
// so each chain performs exactly the combines the untiled kernel
// would, in the same order — the interleave only overlaps their memory
// traffic. One switch covers the whole group so the per-segment cost
// is a single call.
func tiledGroup4[E fastElem](fast FastOp, values []E, perm []int32, multi []E, s0, e0, s1, e1, s2, e2, s3, e3 int, a0, a1, a2, a3 E) (E, E, E, E) {
	q := min(e0-s0, e1-s1, e2-s2, e3-s3)
	switch {
	case fast == FastAdd && multi == nil:
		for i := 0; i < q; i++ {
			a0 += values[perm[s0+i]]
			a1 += values[perm[s1+i]]
			a2 += values[perm[s2+i]]
			a3 += values[perm[s3+i]]
		}
		for _, p := range perm[s0+q : e0] {
			a0 += values[p]
		}
		for _, p := range perm[s1+q : e1] {
			a1 += values[p]
		}
		for _, p := range perm[s2+q : e2] {
			a2 += values[p]
		}
		for _, p := range perm[s3+q : e3] {
			a3 += values[p]
		}
	case fast == FastAdd:
		for i := 0; i < q; i++ {
			p0, p1, p2, p3 := perm[s0+i], perm[s1+i], perm[s2+i], perm[s3+i]
			multi[p0] = a0
			a0 += values[p0]
			multi[p1] = a1
			a1 += values[p1]
			multi[p2] = a2
			a2 += values[p2]
			multi[p3] = a3
			a3 += values[p3]
		}
		for _, p := range perm[s0+q : e0] {
			multi[p] = a0
			a0 += values[p]
		}
		for _, p := range perm[s1+q : e1] {
			multi[p] = a1
			a1 += values[p]
		}
		for _, p := range perm[s2+q : e2] {
			multi[p] = a2
			a2 += values[p]
		}
		for _, p := range perm[s3+q : e3] {
			multi[p] = a3
			a3 += values[p]
		}
	case fast == FastMax && multi == nil:
		for i := 0; i < q; i++ {
			if v := values[perm[s0+i]]; !(a0 > v) {
				a0 = v
			}
			if v := values[perm[s1+i]]; !(a1 > v) {
				a1 = v
			}
			if v := values[perm[s2+i]]; !(a2 > v) {
				a2 = v
			}
			if v := values[perm[s3+i]]; !(a3 > v) {
				a3 = v
			}
		}
		for _, p := range perm[s0+q : e0] {
			if v := values[p]; !(a0 > v) {
				a0 = v
			}
		}
		for _, p := range perm[s1+q : e1] {
			if v := values[p]; !(a1 > v) {
				a1 = v
			}
		}
		for _, p := range perm[s2+q : e2] {
			if v := values[p]; !(a2 > v) {
				a2 = v
			}
		}
		for _, p := range perm[s3+q : e3] {
			if v := values[p]; !(a3 > v) {
				a3 = v
			}
		}
	case fast == FastMax:
		for i := 0; i < q; i++ {
			p0, p1, p2, p3 := perm[s0+i], perm[s1+i], perm[s2+i], perm[s3+i]
			multi[p0] = a0
			if v := values[p0]; !(a0 > v) {
				a0 = v
			}
			multi[p1] = a1
			if v := values[p1]; !(a1 > v) {
				a1 = v
			}
			multi[p2] = a2
			if v := values[p2]; !(a2 > v) {
				a2 = v
			}
			multi[p3] = a3
			if v := values[p3]; !(a3 > v) {
				a3 = v
			}
		}
		for _, p := range perm[s0+q : e0] {
			multi[p] = a0
			if v := values[p]; !(a0 > v) {
				a0 = v
			}
		}
		for _, p := range perm[s1+q : e1] {
			multi[p] = a1
			if v := values[p]; !(a1 > v) {
				a1 = v
			}
		}
		for _, p := range perm[s2+q : e2] {
			multi[p] = a2
			if v := values[p]; !(a2 > v) {
				a2 = v
			}
		}
		for _, p := range perm[s3+q : e3] {
			multi[p] = a3
			if v := values[p]; !(a3 > v) {
				a3 = v
			}
		}
	case fast == FastMin && multi == nil:
		for i := 0; i < q; i++ {
			if v := values[perm[s0+i]]; !(a0 < v) {
				a0 = v
			}
			if v := values[perm[s1+i]]; !(a1 < v) {
				a1 = v
			}
			if v := values[perm[s2+i]]; !(a2 < v) {
				a2 = v
			}
			if v := values[perm[s3+i]]; !(a3 < v) {
				a3 = v
			}
		}
		for _, p := range perm[s0+q : e0] {
			if v := values[p]; !(a0 < v) {
				a0 = v
			}
		}
		for _, p := range perm[s1+q : e1] {
			if v := values[p]; !(a1 < v) {
				a1 = v
			}
		}
		for _, p := range perm[s2+q : e2] {
			if v := values[p]; !(a2 < v) {
				a2 = v
			}
		}
		for _, p := range perm[s3+q : e3] {
			if v := values[p]; !(a3 < v) {
				a3 = v
			}
		}
	case fast == FastMin:
		for i := 0; i < q; i++ {
			p0, p1, p2, p3 := perm[s0+i], perm[s1+i], perm[s2+i], perm[s3+i]
			multi[p0] = a0
			if v := values[p0]; !(a0 < v) {
				a0 = v
			}
			multi[p1] = a1
			if v := values[p1]; !(a1 < v) {
				a1 = v
			}
			multi[p2] = a2
			if v := values[p2]; !(a2 < v) {
				a2 = v
			}
			multi[p3] = a3
			if v := values[p3]; !(a3 < v) {
				a3 = v
			}
		}
		for _, p := range perm[s0+q : e0] {
			multi[p] = a0
			if v := values[p]; !(a0 < v) {
				a0 = v
			}
		}
		for _, p := range perm[s1+q : e1] {
			multi[p] = a1
			if v := values[p]; !(a1 < v) {
				a1 = v
			}
		}
		for _, p := range perm[s2+q : e2] {
			multi[p] = a2
			if v := values[p]; !(a2 < v) {
				a2 = v
			}
		}
		for _, p := range perm[s3+q : e3] {
			multi[p] = a3
			if v := values[p]; !(a3 < v) {
				a3 = v
			}
		}
	default:
		// Bitwise families: the chains run sequentially through the
		// int64-only kernel — same combines in the same per-run order,
		// so still bit-identical; they keep the tile locality but skip
		// the interleave (bitwise combines are pure ALU, so the chains
		// have no latency worth hiding).
		a0 = segKernelBitsOf(fast, values, perm, multi, s0, e0, a0)
		a1 = segKernelBitsOf(fast, values, perm, multi, s1, e1, a1)
		a2 = segKernelBitsOf(fast, values, perm, multi, s2, e2, a2)
		a3 = segKernelBitsOf(fast, values, perm, multi, s3, e3, a3)
	}
	return a0, a1, a2, a3
}

// tiledTilesKernel is the shared tile walk: for each window it
// advances groups of 4 segments as interleaved chains, and the
// leftover <4 segments as single chains. Each run's accumulator
// threads through its red slot. Returns false if stop fired.
//
// Cancellation polls at group granularity: because the interleave
// never reassociates, chunking does not affect results, so the credit
// counter only bounds poll latency — at most one group (4 segments,
// each at most one window long) runs between polls.
func tiledTilesKernel[E fastElem](fast FastOp, values []E, perm []int32, multi, red []E, ts *TileSegs, stop func() bool) bool {
	credit := cancelStride
	lab, los, his, off := ts.Label, ts.Lo, ts.Hi, ts.TileOff
	for t := 0; t+1 < len(off); t++ {
		si, end := int(off[t]), int(off[t+1])
		for ; si+4 <= end; si += 4 {
			if credit <= 0 {
				if stop != nil && stop() {
					return false
				}
				credit = cancelStride
			}
			l0, l1, l2, l3 := lab[si], lab[si+1], lab[si+2], lab[si+3]
			s0, e0 := int(los[si]), int(his[si])
			s1, e1 := int(los[si+1]), int(his[si+1])
			s2, e2 := int(los[si+2]), int(his[si+2])
			s3, e3 := int(los[si+3]), int(his[si+3])
			credit -= (e0 - s0) + (e1 - s1) + (e2 - s2) + (e3 - s3)
			red[l0], red[l1], red[l2], red[l3] = tiledGroup4(fast, values, perm, multi, s0, e0, s1, e1, s2, e2, s3, e3, red[l0], red[l1], red[l2], red[l3])
		}
		for ; si < end; si++ {
			if credit <= 0 {
				if stop != nil && stop() {
					return false
				}
				credit = cancelStride
			}
			l := lab[si]
			s, e := int(los[si]), int(his[si])
			credit -= e - s
			red[l] = sortedSegKernel(fast, values, perm, multi, s, e, red[l])
		}
	}
	return true
}

// tiledScanLabelsKernel is the serial tiled pass over a whole index:
// red is prefilled with the identity and carries every run across
// tiles.
func tiledScanLabelsKernel[E fastElem](fast FastOp, values []E, perm []int32, multi, red []E, ts *TileSegs, stop func() bool) bool {
	fillFastIdent(red, fast)
	return tiledTilesKernel(fast, values, perm, multi, red, ts, stop)
}

// SortedTiledScanLabels is the tiled counterpart of SortedScanLabels
// over the full index: same inputs, bit-identical outputs (prefixes
// into multi through perm, run totals into red), with the traffic
// re-ordered tile-major by the plan-time ts. Callers gate on a
// monomorphic fast op (plans only build TileSegs for shapes FastScans
// admits); any other shape falls through to the untiled scan so a
// gating mistake degrades to correct-but-slower.
//
//mp:hotpath
func SortedTiledScanLabels[T any](op Op[T], fast FastOp, values []T, perm, start []int32, multi, red []T, ts *TileSegs, stop func() bool) bool {
	switch vs := any(values).(type) {
	case []int64:
		if fastSegI64(fast) {
			return tiledScanLabelsKernel(fast, vs, perm, asI64(multi), asI64(red), ts, stop)
		}
	case []float64:
		if fastSegF64(fast) {
			return tiledScanLabelsKernel(fast, vs, perm, asF64(multi), asF64(red), ts, stop)
		}
	}
	return SortedScanLabels(op, fast, values, perm, start, multi, red, 0, len(start)-1, nil, stop)
}
