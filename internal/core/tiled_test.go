package core

import (
	"math"
	"math/rand"
	"testing"
)

// buildTiles is the test-side tile build: a power-of-two window small
// enough to force multiple tiles on the tiny generator shapes.
func buildTiles(perm, start []int32, lo, hi, window int) *TileSegs {
	ts := BuildTileSegs(perm, start, lo, hi, window)
	return &ts
}

// tileSegsCover checks the structural invariants of a tile build over
// [lo, hi): the segments partition the sorted positions, each segment
// stays inside one run and one window, each run's pieces appear in
// ascending window (hence original-index) order, and TileOff indexes
// the segments of window k with labels unique inside each tile — the
// property the interleaved kernels rely on for chain independence.
func tileSegsCover(t *testing.T, ts *TileSegs, perm, start []int32, lo, hi, window int) {
	t.Helper()
	covered := 0
	lastWin := make(map[int32]int)
	m := len(start) - 1
	for si := range ts.Label {
		l, s, e := ts.Label[si], int(ts.Lo[si]), int(ts.Hi[si])
		if s >= e || s < lo || e > hi {
			t.Fatalf("segment %d: [%d,%d) outside [%d,%d)", si, s, e, lo, hi)
		}
		if int(l) >= m || s < int(start[l]) || e > int(start[l+1]) {
			t.Fatalf("segment %d: [%d,%d) escapes run %d [%d,%d)", si, s, e, l, start[l], start[l+1])
		}
		win := int(perm[s]) / window
		for i := s; i < e; i++ {
			if int(perm[i])/window != win {
				t.Fatalf("segment %d: position %d crosses window %d", si, i, win)
			}
		}
		if prev, seen := lastWin[l]; seen && win <= prev {
			t.Fatalf("run %d: window %d not after %d — in-run order broken", l, win, prev)
		}
		lastWin[l] = win
		covered += e - s
	}
	if covered != hi-lo {
		t.Fatalf("segments cover %d positions, want %d", covered, hi-lo)
	}
	off := ts.TileOff
	nWin := (len(perm) + window - 1) / window
	if len(off) != nWin+1 {
		t.Fatalf("TileOff has %d entries, want %d", len(off), nWin+1)
	}
	if off[0] != 0 || int(off[nWin]) != len(ts.Label) {
		t.Fatalf("TileOff bounds [%d,%d], want [0,%d]", off[0], off[nWin], len(ts.Label))
	}
	for k := 0; k < nWin; k++ {
		if off[k] > off[k+1] {
			t.Fatalf("TileOff[%d]=%d > TileOff[%d]=%d", k, off[k], k+1, off[k+1])
		}
		seen := make(map[int32]bool)
		for si := int(off[k]); si < int(off[k+1]); si++ {
			if win := int(perm[ts.Lo[si]]) / window; win != k {
				t.Fatalf("segment %d in tile %d has window %d", si, k, win)
			}
			if seen[ts.Label[si]] {
				t.Fatalf("tile %d: label %d appears twice — chains would alias", k, ts.Label[si])
			}
			seen[ts.Label[si]] = true
		}
	}
}

// TestBuildTileSegsInvariants drives the builder over the shared case
// generator at windows small enough to force many tiles.
func TestBuildTileSegsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, tc := range genCases(rng) {
		idx, err := BuildSortedIndex(tc.labels, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{8, 64, 1024} {
			ts := buildTiles(idx.Perm, idx.Start, 0, len(tc.labels), window)
			tileSegsCover(t, ts, idx.Perm, idx.Start, 0, len(tc.labels), window)
		}
	}
}

// TestTiledScanLabelsParity: the serial tiled pass must be bit-
// identical to the serial reference (the untiled scan already is) for
// the monomorphic operators, with and without multi, across the shared
// shapes and forced-small windows.
func TestTiledScanLabelsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, tc := range genCases(rng) {
		idx, err := BuildSortedIndex(tc.labels, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Op[int64]{AddInt64, MaxInt64, MinInt64, AndInt64, OrInt64, XorInt64} {
			want := mustSerialOp(t, op, tc.values, tc.labels, tc.m)
			for _, window := range []int{8, 64, 1024} {
				ts := buildTiles(idx.Perm, idx.Start, 0, len(tc.labels), window)
				multi := make([]int64, len(tc.values))
				red := make([]int64, tc.m)
				if !SortedTiledScanLabels(op, op.Fast, tc.values, idx.Perm, idx.Start, multi, red, ts, nil) {
					t.Fatalf("%s/%s/w%d: tiled scan aborted", tc.name, op.Name, window)
				}
				if !equalInt64(multi, want.Multi) || !equalInt64(red, want.Reductions) {
					t.Fatalf("%s/%s/w%d: tiled scan differs from serial", tc.name, op.Name, window)
				}
				clear(red)
				if !SortedTiledScanLabels(op, op.Fast, tc.values, idx.Perm, idx.Start, nil, red, ts, nil) {
					t.Fatalf("%s/%s/w%d: tiled reduce aborted", tc.name, op.Name, window)
				}
				if !equalInt64(red, want.Reductions) {
					t.Fatalf("%s/%s/w%d: tiled reduce differs from serial", tc.name, op.Name, window)
				}
			}
		}
	}
}

// TestTiledScanLabelsFloat64 covers the float64 kernels with exactly
// representable values (the repo's float testing convention): identity
// elements for max (-Inf) and zero-valued adds included so identity-
// valued data flows through the blocked chains.
func TestTiledScanLabelsFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n, m = 4096, 17
	values := make([]float64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = float64(rng.Intn(201) - 100)
		if rng.Intn(16) == 0 {
			values[i] = 0
		}
		if rng.Intn(32) == 0 {
			values[i] = math.Inf(-1)
		}
		labels[i] = rng.Intn(m)
	}
	idx, err := BuildSortedIndex(labels, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op[float64]{AddFloat64, MaxFloat64, MinFloat64} {
		vals := values
		if op.Fast == FastAdd {
			// Keep sums exact: -Inf is a max-identity probe only.
			vals = make([]float64, n)
			for i, v := range values {
				if math.IsInf(v, -1) {
					v = -100
				}
				vals[i] = v
			}
		}
		want, err := Serial(op, vals, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{64, 512} {
			ts := buildTiles(idx.Perm, idx.Start, 0, n, window)
			multi := make([]float64, n)
			red := make([]float64, m)
			if !SortedTiledScanLabels(op, op.Fast, vals, idx.Perm, idx.Start, multi, red, ts, nil) {
				t.Fatalf("%s/w%d: tiled scan aborted", op.Name, window)
			}
			for i := range multi {
				if multi[i] != want.Multi[i] {
					t.Fatalf("%s/w%d: Multi[%d] = %v, want %v", op.Name, window, i, multi[i], want.Multi[i])
				}
			}
			for l := range red {
				if red[l] != want.Reductions[l] {
					t.Fatalf("%s/w%d: Reductions[%d] = %v, want %v", op.Name, window, l, red[l], want.Reductions[l])
				}
			}
		}
	}
}

// TestTiledCancellation: the tiled scan honors the stop/credit
// cancellation cadence and reports an abort like the untiled kernels.
func TestTiledCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	values, labels := randInput(rng, 3*CancelStride, 4)
	idx, err := BuildSortedIndex(labels, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := buildTiles(idx.Perm, idx.Start, 0, len(values), 4096)
	multi := make([]int64, len(values))
	red := make([]int64, 4)
	polls := 0
	stop := func() bool { polls++; return polls > 1 }
	if SortedTiledScanLabels(AddInt64, FastAdd, values, idx.Perm, idx.Start, multi, red, ts, stop) {
		t.Fatal("stop never aborted the tiled scan")
	}
	if polls < 2 {
		t.Fatalf("stop polled %d times", polls)
	}
}

// TestTiledGenericFallthrough: a non-monomorphic element type reaches
// the untiled generic scan through the tiled entry points, so gating
// mistakes degrade to correct-but-slower, never to wrong.
func TestTiledGenericFallthrough(t *testing.T) {
	concat := Op[string]{
		Name:     "concat",
		Identity: "",
		Combine:  func(a, b string) string { return a + b },
	}
	values := []string{"a", "b", "c", "d", "e", "f", "g"}
	labels := []int{1, 0, 1, 1, 0, 2, 1}
	idx, err := BuildSortedIndex(labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Serial(concat, values, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	ts := buildTiles(idx.Perm, idx.Start, 0, len(values), 8)
	multi := make([]string, len(values))
	red := make([]string, 3)
	if !SortedTiledScanLabels(concat, concat.Fast, values, idx.Perm, idx.Start, multi, red, ts, nil) {
		t.Fatal("fallthrough scan aborted")
	}
	for i := range want.Multi {
		if multi[i] != want.Multi[i] {
			t.Fatalf("Multi[%d] = %q, want %q", i, multi[i], want.Multi[i])
		}
	}
	for l := range want.Reductions {
		if red[l] != want.Reductions[l] {
			t.Fatalf("Reductions[%d] = %q, want %q", l, red[l], want.Reductions[l])
		}
	}
}

// TestTileWindow pins the sizing policy: power of two, budget-derived,
// and 0 (no tiling) below the four-window floor.
func TestTileWindow(t *testing.T) {
	if w := TileWindow(1<<20, 1<<20); w != 1<<16 {
		t.Fatalf("TileWindow(1M elems, 1MiB) = %d, want %d", w, 1<<16)
	}
	if w := TileWindow(1<<10, 1<<20); w != 0 {
		t.Fatalf("TileWindow(small n) = %d, want 0", w)
	}
	if w := TileWindow(1<<20, 0); w != 1<<15 {
		t.Fatalf("TileWindow(1M elems, default 512KiB) = %d, want %d", w, 1<<15)
	}
	if w := TileWindow(1<<20, 3<<19); w != 1<<16 {
		t.Fatalf("TileWindow must round down to a power of two, got %d", w)
	}
	// The four-window floor: two or three windows' worth of input runs
	// untiled; crossing 3·window tiles.
	if w := TileWindow(3<<16, 1<<20); w != 0 {
		t.Fatalf("TileWindow(3 windows) = %d, want 0", w)
	}
	if w := TileWindow(3<<16+1, 1<<20); w != 1<<16 {
		t.Fatalf("TileWindow(just past 3 windows) = %d, want %d", w, 1<<16)
	}
}

// tiledBenchShapes are the tuning shapes: m spanning L1-resident
// buckets (serial's best case) through bucket arrays far beyond L1.
var tiledBenchShapes = []struct{ n, m int }{
	{1 << 18, 1 << 4},
	{1 << 18, 1 << 8},
	{1 << 18, 1 << 12},
	{1 << 18, 1 << 16},
}

func benchInput(n, m int) ([]int64, []int) {
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(i&1023) - 512
		labels[i] = int(uint32(i*2654435761) % uint32(m))
	}
	return values, labels
}

func BenchmarkTiledScan(b *testing.B) {
	for _, sh := range tiledBenchShapes {
		values, labels := benchInput(sh.n, sh.m)
		idx, err := BuildSortedIndex(labels, sh.m)
		if err != nil {
			b.Fatal(err)
		}
		multi := make([]int64, sh.n)
		red := make([]int64, sh.m)
		b.Run(sizeName("serial", sh.n, sh.m), func(b *testing.B) {
			ws := NewWorkspace[int64]()
			buf := ws.Acquire()
			defer ws.Release(buf)
			b.SetBytes(int64(sh.n * 8))
			for i := 0; i < b.N; i++ {
				if _, err := buf.Serial(AddInt64, values, labels, sh.m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("untiled", sh.n, sh.m), func(b *testing.B) {
			b.SetBytes(int64(sh.n * 8))
			for i := 0; i < b.N; i++ {
				if !SortedScanLabels(AddInt64, FastAdd, values, idx.Perm, idx.Start, multi, red, 0, sh.m, nil, nil) {
					b.Fatal("aborted")
				}
			}
		})
		for _, budget := range []int{1 << 19, 1 << 20, 1 << 21} {
			window := TileWindow(sh.n, budget)
			if window == 0 {
				continue
			}
			ts := BuildTileSegs(idx.Perm, idx.Start, 0, sh.n, window)
			b.Run(sizeName("tiled"+kbName(budget), sh.n, sh.m), func(b *testing.B) {
				b.SetBytes(int64(sh.n * 8))
				for i := 0; i < b.N; i++ {
					if !SortedTiledScanLabels(AddInt64, FastAdd, values, idx.Perm, idx.Start, multi, red, &ts, nil) {
						b.Fatal("aborted")
					}
				}
			})
		}
	}
}

func sizeName(kind string, n, m int) string {
	return kind + "/n" + itoa(n) + "/m" + itoa(m)
}

func kbName(bytes int) string {
	return "-" + itoa(bytes>>10) + "k"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
