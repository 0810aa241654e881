package core

import "math"

// This file is the accumulator layer of the incremental multiprefix
// (DESIGN.md §14): Fenwick (binary-indexed) trees, one per label
// class, so a stateful Plan can maintain point updates in O(log L), L
// the class length, instead of re-running the whole O(n) pipeline. The
// idea follows Brodnik et al.'s prefix-sum-under-update line of work
// (PAPERS.md): prefix state is cheap to *maintain* when the operator
// is invertible. The counting-sort order the engine already builds at
// plan time lays each class out as one contiguous run, and the backend
// keeps each class's tree in that run of one shared array; a per-label
// prefix is then a single walk over a class's tree. The kernels here
// know nothing of classes: the backend hands each one a class's
// subslice, and the slice length bounds every walk.
//
// The kernels are monomorphic (int64 / float64) like the fast-op
// kernels in fastpath.go: the backend dispatches with the
// allocation-free any(x).(T) idiom. All of them use the classic
// 1-based tree addressing internally but expose 0-based positions, so
// callers never see the off-by-one.
//
// # Exactness
//
// int64 addition is associative mod 2^64, so a Fenwick-maintained sum
// is bit-identical to the serial left-to-right sum under any update
// history, overflow included.
//
// float64 addition is NOT associative, and per-operation exactness
// checks are insufficient: a serial left-to-right sum can round where
// the tree's dyadic association happens to stay exact, so "every tree
// add was exact" does not imply "equal to recompute". The usable
// guarantee is an envelope: if every value a tree holds is an integer-
// valued float with |v| <= 2^52/L, L the tree's length, then every
// partial sum of any subset, in any association order, is an integer
// of magnitude <= 2^52 — exactly representable, hence order-
// independent, hence bit-identical to the serial recompute, which sums
// each class on its own as well. FenwickFloat64Bound derives the
// envelope; the backend sizes it by its largest class and drops to
// the full re-run tier the moment a resident value leaves it.

// FenwickBuildInt64 builds the Fenwick tree over vals into tree (both
// len n) in O(n): tree[k] covers vals[k-lowbit(k+1)+1 .. k].
//
//mp:hotpath
func FenwickBuildInt64(tree, vals []int64) {
	n := len(tree)
	copy(tree, vals)
	for i := 1; i <= n; i++ {
		if j := i + i&(-i); j <= n {
			tree[j-1] += tree[i-1]
		}
	}
}

// FenwickGatherBuildInt64 builds the tree over the permuted view
// vals[perm[k]] — the counting-sort order the plan already owns — in
// one gather + build pass, no scratch.
//
//mp:hotpath
func FenwickGatherBuildInt64(tree, vals []int64, perm []int32) {
	n := len(tree)
	for k, p := range perm {
		tree[k] = vals[p]
	}
	for i := 1; i <= n; i++ {
		if j := i + i&(-i); j <= n {
			tree[j-1] += tree[i-1]
		}
	}
}

// FenwickAddInt64 adds delta at 0-based position pos in O(log n).
//
//mp:hotpath
func FenwickAddInt64(tree []int64, pos int, delta int64) {
	n := len(tree)
	for i := pos + 1; i <= n; i += i & (-i) {
		tree[i-1] += delta
	}
}

// FenwickPrefixInt64 returns the sum of the first k values (positions
// 0 .. k-1) in O(log n).
//
//mp:hotpath
func FenwickPrefixInt64(tree []int64, k int) int64 {
	var s int64
	for i := k; i > 0; i -= i & (-i) {
		s += tree[i-1]
	}
	return s
}

// FenwickBuildFloat64 is FenwickBuildInt64 at float64. Exactness (and
// therefore bit-identity with the serial order) is the caller's
// obligation via the FenwickFloat64Bound envelope.
//
//mp:hotpath
func FenwickBuildFloat64(tree, vals []float64) {
	n := len(tree)
	copy(tree, vals)
	for i := 1; i <= n; i++ {
		if j := i + i&(-i); j <= n {
			tree[j-1] += tree[i-1]
		}
	}
}

// FenwickGatherBuildFloat64 is FenwickGatherBuildInt64 at float64.
//
//mp:hotpath
func FenwickGatherBuildFloat64(tree, vals []float64, perm []int32) {
	n := len(tree)
	for k, p := range perm {
		tree[k] = vals[p]
	}
	for i := 1; i <= n; i++ {
		if j := i + i&(-i); j <= n {
			tree[j-1] += tree[i-1]
		}
	}
}

// FenwickAddFloat64 is FenwickAddInt64 at float64.
//
//mp:hotpath
func FenwickAddFloat64(tree []float64, pos int, delta float64) {
	n := len(tree)
	for i := pos + 1; i <= n; i += i & (-i) {
		tree[i-1] += delta
	}
}

// FenwickPrefixFloat64 is FenwickPrefixInt64 at float64.
//
//mp:hotpath
func FenwickPrefixFloat64(tree []float64, k int) float64 {
	var s float64
	for i := k; i > 0; i -= i & (-i) {
		s += tree[i-1]
	}
	return s
}

// FenwickFloat64Bound returns the per-value magnitude bound of the
// exact float64 envelope for sums of at most n values (a class tree
// of length n): while every value is integer-valued with
// |v| <= bound, every partial sum of every subset is an integer of
// magnitude <= 2^52 in any association order, so Fenwick answers are
// bit-identical to the serial recompute.
func FenwickFloat64Bound(n int) float64 {
	if n < 1 {
		n = 1
	}
	return math.Ldexp(1, 52) / float64(n)
}

// FenwickFloat64Safe reports whether v stays inside the exact
// envelope: an integer-valued float with |v| <= bound. NaN and Inf
// fail the comparison and are rejected.
func FenwickFloat64Safe(v, bound float64) bool {
	return v == math.Trunc(v) && v >= -bound && v <= bound
}
