package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randInput builds a random int64 test vector with labels in [0, m).
func randInput(rng *rand.Rand, n, m int) ([]int64, []int) {
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(2001) - 1000)
		labels[i] = rng.Intn(m)
	}
	return values, labels
}

func sameResult(t *testing.T, name string, got, want Result[int64]) {
	t.Helper()
	if len(got.Multi) != len(want.Multi) || len(got.Reductions) != len(want.Reductions) {
		t.Fatalf("%s: result shape (%d,%d), want (%d,%d)", name,
			len(got.Multi), len(got.Reductions), len(want.Multi), len(want.Reductions))
	}
	for i := range want.Multi {
		if got.Multi[i] != want.Multi[i] {
			t.Fatalf("%s: Multi[%d]=%d, want %d", name, i, got.Multi[i], want.Multi[i])
		}
	}
	for k := range want.Reductions {
		if got.Reductions[k] != want.Reductions[k] {
			t.Fatalf("%s: Reductions[%d]=%d, want %d", name, k, got.Reductions[k], want.Reductions[k])
		}
	}
}

// TestPooledEnginesMatchSerial runs every pooled engine repeatedly on
// the same Buffers with changing shapes and operators, checking
// bit-exact agreement with the unpooled Serial reference. Shape
// changes between rounds exercise the grow-in-place paths. The
// repeated {257, 1024} round draws fresh labels at an unchanged shape,
// where each chunk touches a different label set: a pooled runner that
// kept the previous call's touched lists would fail it.
func TestPooledEnginesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	shapes := []struct{ n, m int }{
		{0, 0}, {1, 1}, {17, 3}, {1000, 1}, {1000, 64}, {5000, 997}, {257, 1024}, {257, 1024}, {4096, 16},
	}
	ops := []Op[int64]{AddInt64, MaxInt64, MulInt64, MinInt64}
	cfg := Config{Workers: 4}
	for round, sh := range shapes {
		op := ops[round%len(ops)]
		values, labels := randInput(rng, sh.n, sh.m)
		want, err := Serial(op, values, labels, sh.m)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		engines := []struct {
			name string
			run  func() (Result[int64], error)
		}{
			{"pooled-serial", func() (Result[int64], error) { return b.Serial(op, values, labels, sh.m) }},
			{"pooled-spinetree", func() (Result[int64], error) { return b.Spinetree(op, values, labels, sh.m, cfg) }},
			{"pooled-chunked", func() (Result[int64], error) { return b.Chunked(op, values, labels, sh.m, cfg) }},
			{"pooled-parallel", func() (Result[int64], error) { return b.Parallel(op, values, labels, sh.m, cfg) }},
		}
		for _, e := range engines {
			got, err := e.run()
			if err != nil {
				t.Fatalf("round %d %s: %v", round, e.name, err)
			}
			sameResult(t, e.name, got, want)
		}
		reducers := []struct {
			name string
			run  func() ([]int64, error)
		}{
			{"pooled-serial-reduce", func() ([]int64, error) { return b.SerialReduce(op, values, labels, sh.m) }},
			{"pooled-spinetree-reduce", func() ([]int64, error) { return b.SpinetreeReduce(op, values, labels, sh.m, cfg) }},
			{"pooled-chunked-reduce", func() ([]int64, error) { return b.ChunkedReduce(op, values, labels, sh.m, cfg) }},
			{"pooled-parallel-reduce", func() ([]int64, error) { return b.ParallelReduce(op, values, labels, sh.m, cfg) }},
		}
		for _, e := range reducers {
			red, err := e.run()
			if err != nil {
				t.Fatalf("round %d %s: %v", round, e.name, err)
			}
			for k := range want.Reductions {
				if red[k] != want.Reductions[k] {
					t.Fatalf("round %d %s: red[%d]=%d, want %d", round, e.name, k, red[k], want.Reductions[k])
				}
			}
		}
	}
}

// TestPooledGenericOpMatchesSerial checks the generic (non-FastOp)
// pooled path with a non-commutative operator, which would expose any
// ordering difference introduced by pooling.
func TestPooledGenericOpMatchesSerial(t *testing.T) {
	ws := NewWorkspace[string]()
	b := ws.Acquire()
	defer ws.Release(b)
	n, m := 400, 7
	rng := rand.New(rand.NewSource(3))
	values := make([]string, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = string(rune('a' + i%26))
		labels[i] = rng.Intn(m)
	}
	want, err := Serial(ConcatString, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 4}
	for _, e := range []struct {
		name string
		run  func() (Result[string], error)
	}{
		{"serial", func() (Result[string], error) { return b.Serial(ConcatString, values, labels, m) }},
		{"spinetree", func() (Result[string], error) { return b.Spinetree(ConcatString, values, labels, m, cfg) }},
		{"chunked", func() (Result[string], error) { return b.Chunked(ConcatString, values, labels, m, cfg) }},
		{"parallel", func() (Result[string], error) { return b.Parallel(ConcatString, values, labels, m, cfg) }},
	} {
		got, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for i := range want.Multi {
			if got.Multi[i] != want.Multi[i] {
				t.Fatalf("%s: Multi[%d]=%q, want %q", e.name, i, got.Multi[i], want.Multi[i])
			}
		}
		for k := range want.Reductions {
			if got.Reductions[k] != want.Reductions[k] {
				t.Fatalf("%s: Reductions[%d]=%q, want %q", e.name, k, got.Reductions[k], want.Reductions[k])
			}
		}
	}
}

// TestPooledParallelRecoversAfterPanic verifies that a panicking
// operator fails one pooled Parallel run with a typed error, the
// poisoned team is rebuilt, and the same Buffers computes correctly
// afterwards.
func TestPooledParallelRecoversAfterPanic(t *testing.T) {
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	rng := rand.New(rand.NewSource(11))
	values, labels := randInput(rng, 3000, 17)
	bad := Op[int64]{
		Name:     "boom",
		Identity: 0,
		Combine: func(a, x int64) int64 {
			if x == values[1500] {
				panic("injected")
			}
			return a + x
		},
	}
	cfg := Config{Workers: 4}
	_, err := b.Parallel(bad, values, labels, 17, cfg)
	var pe *EnginePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want EnginePanicError, got %v", err)
	}
	if b.team != nil {
		t.Fatalf("poisoned team not dropped")
	}
	want, _ := Serial(AddInt64, values, labels, 17)
	got, err := b.Parallel(AddInt64, values, labels, 17, cfg)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	sameResult(t, "recovery", got, want)
}

// TestPooledChunkedRecoversAfterPanicAndCancel checks the pooled
// Chunked engine across failure modes: a panicking op, then a
// cancelled context, then a clean run — all on one Buffers.
func TestPooledChunkedRecoversAfterPanicAndCancel(t *testing.T) {
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	rng := rand.New(rand.NewSource(13))
	values, labels := randInput(rng, 3000, 17)
	bad := Op[int64]{
		Name:     "boom",
		Identity: 0,
		Combine:  func(a, x int64) int64 { panic("injected") },
	}
	cfg := Config{Workers: 4}
	_, err := b.Chunked(bad, values, labels, 17, cfg)
	var pe *EnginePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want EnginePanicError, got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = b.Chunked(AddInt64, values, labels, 17, Config{Workers: 4, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	want, _ := Serial(AddInt64, values, labels, 17)
	got, err := b.Chunked(AddInt64, values, labels, 17, cfg)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	sameResult(t, "recovery", got, want)
}

// TestPooledDerivedHelpers checks EnumerateIn and SegmentedScanIn
// against their allocating counterparts.
func TestPooledDerivedHelpers(t *testing.T) {
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	labels := []int{0, 2, 0, 1, 2, 2, 0}
	wantRanks, wantCounts, err := Enumerate(labels, 3, SerialEngine[int64]())
	if err != nil {
		t.Fatal(err)
	}
	ranks, counts, err := EnumerateIn(b, labels, 3, b.SerialEngine())
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantRanks {
		if ranks[i] != wantRanks[i] {
			t.Fatalf("ranks[%d]=%d, want %d", i, ranks[i], wantRanks[i])
		}
	}
	for k := range wantCounts {
		if counts[k] != wantCounts[k] {
			t.Fatalf("counts[%d]=%d, want %d", k, counts[k], wantCounts[k])
		}
	}

	values := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	segments := []bool{true, false, false, true, false, true, false, false}
	wantScans, wantTotals, err := SegmentedScan(AddInt64, values, segments, SerialEngine[int64]())
	if err != nil {
		t.Fatal(err)
	}
	b2 := ws.Acquire() // separate Buffers: engine call must not clobber b2.lab
	defer ws.Release(b2)
	scans, totals, err := SegmentedScanIn(b2, AddInt64, values, segments, b2.ChunkedEngine(Config{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantScans {
		if scans[i] != wantScans[i] {
			t.Fatalf("scans[%d]=%d, want %d", i, scans[i], wantScans[i])
		}
	}
	for k := range wantTotals {
		if totals[k] != wantTotals[k] {
			t.Fatalf("totals[%d]=%d, want %d", k, totals[k], wantTotals[k])
		}
	}
}
