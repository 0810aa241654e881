package core

import (
	"math"
	"math/rand"
	"testing"
)

// naivePrefixInt64 is the reference: sum of vals[0:k].
func naivePrefixInt64(vals []int64, k int) int64 {
	var s int64
	for _, v := range vals[:k] {
		s += v
	}
	return s
}

func TestFenwickInt64Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 257} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(2001) - 1000
		}
		tree := make([]int64, n)
		FenwickBuildInt64(tree, vals)
		for k := 0; k <= n; k++ {
			if got, want := FenwickPrefixInt64(tree, k), naivePrefixInt64(vals, k); got != want {
				t.Fatalf("n=%d prefix(%d) = %d, want %d", n, k, got, want)
			}
		}
		// Random point updates keep every prefix exact.
		for r := 0; r < 50 && n > 0; r++ {
			i := rng.Intn(n)
			nv := rng.Int63n(2001) - 1000
			FenwickAddInt64(tree, i, nv-vals[i])
			vals[i] = nv
			k := rng.Intn(n + 1)
			if got, want := FenwickPrefixInt64(tree, k), naivePrefixInt64(vals, k); got != want {
				t.Fatalf("n=%d after update prefix(%d) = %d, want %d", n, k, got, want)
			}
		}
	}
}

func TestFenwickInt64OverflowStaysExact(t *testing.T) {
	// int64 addition is associative mod 2^64: overflowing values must
	// still match the serial left-to-right sum bit for bit.
	vals := []int64{math.MaxInt64, 1, math.MaxInt64, math.MinInt64, -7}
	tree := make([]int64, len(vals))
	FenwickBuildInt64(tree, vals)
	for k := 0; k <= len(vals); k++ {
		if got, want := FenwickPrefixInt64(tree, k), naivePrefixInt64(vals, k); got != want {
			t.Fatalf("prefix(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestFenwickGatherBuild(t *testing.T) {
	vals := []int64{5, -2, 9, 0, 3, 3}
	perm := []int32{3, 0, 5, 1, 4, 2}
	gathered := make([]int64, len(vals))
	for k, p := range perm {
		gathered[k] = vals[p]
	}
	want := make([]int64, len(vals))
	FenwickBuildInt64(want, gathered)
	got := make([]int64, len(vals))
	FenwickGatherBuildInt64(got, vals, perm)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tree[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	fvals := []float64{5, -2, 9, 0, 3, 3}
	fwant := make([]float64, len(fvals))
	fg := make([]float64, len(fvals))
	for k, p := range perm {
		fg[k] = fvals[p]
	}
	FenwickBuildFloat64(fwant, fg)
	fgot := make([]float64, len(fvals))
	FenwickGatherBuildFloat64(fgot, fvals, perm)
	for i := range fwant {
		if fgot[i] != fwant[i] {
			t.Fatalf("ftree[%d] = %v, want %v", i, fgot[i], fwant[i])
		}
	}
}

func TestFenwickFloat64ParityInsideEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 128
	bound := FenwickFloat64Bound(n)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(rng.Int63n(4001) - 2000) // integers well under bound
		if !FenwickFloat64Safe(vals[i], bound) {
			t.Fatalf("test value %v outside envelope bound %v", vals[i], bound)
		}
	}
	tree := make([]float64, n)
	FenwickBuildFloat64(tree, vals)
	serial := func(k int) float64 {
		var s float64
		for _, v := range vals[:k] {
			s += v
		}
		return s
	}
	for r := 0; r < 200; r++ {
		i := rng.Intn(n)
		nv := float64(rng.Int63n(4001) - 2000)
		FenwickAddFloat64(tree, i, nv-vals[i])
		vals[i] = nv
		k := rng.Intn(n + 1)
		got, want := FenwickPrefixFloat64(tree, k), serial(k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("prefix(%d) = %v, want bit-identical %v", k, got, want)
		}
	}
}

func TestFenwickFloat64Envelope(t *testing.T) {
	b := FenwickFloat64Bound(1 << 10)
	if want := math.Ldexp(1, 42); b != want {
		t.Fatalf("bound(2^10) = %v, want %v", b, want)
	}
	cases := []struct {
		v    float64
		safe bool
	}{
		{0, true}, {1, true}, {-1, true}, {b, true}, {-b, true},
		{0.5, false}, {b + 1, false}, {-b - 1, false},
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	}
	for _, c := range cases {
		if got := FenwickFloat64Safe(c.v, b); got != c.safe {
			t.Fatalf("safe(%v) = %v, want %v", c.v, got, c.safe)
		}
	}
	if FenwickFloat64Bound(0) != FenwickFloat64Bound(1) {
		t.Fatal("bound must clamp n below 1")
	}
}

// TestFenwickSerialCanRoundWhereTreeIsExact pins why the envelope
// gate exists: per-operation exactness of the tree's own adds does
// NOT imply bit-identity with the serial left-to-right order.
func TestFenwickSerialCanRoundWhereTreeIsExact(t *testing.T) {
	big := math.Ldexp(1, 53)
	vals := []float64{1, big, 1, -big}
	var serial float64
	for _, v := range vals {
		serial += v // 1+big rounds to big twice -> serial total 0, true sum 2
	}
	tree := make([]float64, len(vals))
	FenwickBuildFloat64(tree, vals)
	got := FenwickPrefixFloat64(tree, 4)
	if serial == got {
		t.Fatalf("expected association mismatch, both %v", serial)
	}
	bound := FenwickFloat64Bound(len(vals))
	if FenwickFloat64Safe(big, bound) {
		t.Fatal("envelope must reject the magnitude that made serial round")
	}
}

// TestUpdateBurstModel pins the burst rule max(1, n / (4·(⌊log₂L⌋+1))):
// an update walks the ⌊log₂L⌋+1 levels of its own class tree, L the
// largest class, so the burst grows as classes shrink and never leaves
// [1, n].
func TestUpdateBurstModel(t *testing.T) {
	cases := []struct{ n, largest, want int }{
		{1 << 14, 1 << 14, (1 << 14) / (4 * 15)},
		{1 << 14, 1 << 8, (1 << 14) / (4 * 9)},
		{1 << 14, 1, (1 << 14) / 4},
		{1 << 14, 0, (1 << 14) / 4},
		{3, 3, 1},
		{0, 0, 1},
	}
	for _, tc := range cases {
		got := AutoUpdateBurst(tc.n, tc.largest, Config{})
		if got != tc.want {
			t.Errorf("AutoUpdateBurst(n=%d, L=%d) = %d, want %d", tc.n, tc.largest, got, tc.want)
		}
		if got < 1 || (tc.n > 0 && got > tc.n) {
			t.Errorf("AutoUpdateBurst(n=%d, L=%d) = %d outside [1, n]", tc.n, tc.largest, got)
		}
	}
}

// TestAutoUpdateBurst: an explicit AutoCal.UpdateBurst pins the burst;
// an AutoCal without one falls through to the rule.
func TestAutoUpdateBurst(t *testing.T) {
	pinned := Config{AutoCal: &AutoCalibration{UpdateBurst: 77}}
	if got := AutoUpdateBurst(1<<16, 1<<10, pinned); got != 77 {
		t.Fatalf("pinned burst = %d, want 77", got)
	}
	unpinned := Config{AutoCal: &AutoCalibration{SerialMax: 5}}
	if got, want := AutoUpdateBurst(1<<16, 1<<10, unpinned), AutoUpdateBurst(1<<16, 1<<10, Config{}); got != want {
		t.Fatalf("unpinned burst = %d, want the rule's %d", got, want)
	}
}

// TestFenwickZeroAllocs pins the warm-path allocation contract of
// every Fenwick kernel (the dynamic half of their //mp:hotpath
// annotation): FenwickBuildInt64, FenwickGatherBuildInt64,
// FenwickAddInt64, FenwickPrefixInt64, FenwickBuildFloat64,
// FenwickGatherBuildFloat64, FenwickAddFloat64, FenwickPrefixFloat64.
func TestFenwickZeroAllocs(t *testing.T) {
	const n = 1 << 10
	vals := make([]int64, n)
	tree := make([]int64, n)
	fvals := make([]float64, n)
	ftree := make([]float64, n)
	perm := make([]int32, n)
	for i := range vals {
		vals[i] = int64(i&127) - 64
		fvals[i] = float64(i&127) - 64
		perm[i] = int32(n - 1 - i)
	}
	var sink int64
	var fsink float64
	allocs := testing.AllocsPerRun(100, func() {
		FenwickBuildInt64(tree, vals)
		FenwickGatherBuildInt64(tree, vals, perm)
		FenwickAddInt64(tree, 17, 5)
		sink += FenwickPrefixInt64(tree, n/2)
		FenwickBuildFloat64(ftree, fvals)
		FenwickGatherBuildFloat64(ftree, fvals, perm)
		FenwickAddFloat64(ftree, 17, 5)
		fsink += FenwickPrefixFloat64(ftree, n/2)
	})
	if allocs != 0 {
		t.Fatalf("fenwick kernels allocated %.1f/op, want 0", allocs)
	}
	_ = sink
	_ = fsink
}
