package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"multiprefix/internal/fault"
)

// TestBuildSortedIndexStable checks the counting sort against a naive
// stable grouping: label l's run is Perm[Start[l]:Start[l+1]], holding
// l's vector indices in increasing (= vector) order.
func TestBuildSortedIndexStable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	shapes := []struct{ n, m int }{{0, 0}, {0, 3}, {1, 1}, {9, 4}, {257, 16}, {1000, 7}, {50, 200}}
	for _, sh := range shapes {
		labels := make([]int, sh.n)
		for i := range labels {
			labels[i] = rng.Intn(max(sh.m, 1))
		}
		idx, err := BuildSortedIndex(labels, sh.m)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx.Perm) != sh.n || len(idx.Start) != sh.m+1 {
			t.Fatalf("n=%d m=%d: shapes Perm=%d Start=%d", sh.n, sh.m, len(idx.Perm), len(idx.Start))
		}
		if int(idx.Start[sh.m]) != sh.n {
			t.Fatalf("Start[m] = %d, want n=%d", idx.Start[sh.m], sh.n)
		}
		want := make([][]int32, sh.m)
		for i, l := range labels {
			want[l] = append(want[l], int32(i))
		}
		for l := 0; l < sh.m; l++ {
			run := idx.Perm[idx.Start[l]:idx.Start[l+1]]
			if len(run) != len(want[l]) {
				t.Fatalf("label %d: run length %d, want %d", l, len(run), len(want[l]))
			}
			for k, p := range run {
				if p != want[l][k] {
					t.Fatalf("label %d: run[%d] = %d, want %d (stability violated)", l, k, p, want[l][k])
				}
			}
		}
	}
}

// TestSortedMatchesSerial drives the one-shot sorted engine (and its
// pooled and reduce-only forms) against the serial reference over the
// shared case generator, for the fast-path PLUS and the generic-path
// MAX operators.
func TestSortedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	for _, tc := range genCases(rng) {
		for _, op := range []Op[int64]{AddInt64, MaxInt64, MinInt64, AndInt64, OrInt64, XorInt64} {
			want := mustSerialOp(t, op, tc.values, tc.labels, tc.m)
			got, err := Sorted(op, tc.values, tc.labels, tc.m, Config{})
			if err != nil {
				t.Fatalf("%s/%s: Sorted: %v", tc.name, op.Name, err)
			}
			if !equalInt64(got.Multi, want.Multi) || !equalInt64(got.Reductions, want.Reductions) {
				t.Fatalf("%s/%s: Sorted differs from serial", tc.name, op.Name)
			}
			red, err := SortedReduce(op, tc.values, tc.labels, tc.m, Config{})
			if err != nil {
				t.Fatalf("%s/%s: SortedReduce: %v", tc.name, op.Name, err)
			}
			if !equalInt64(red, want.Reductions) {
				t.Fatalf("%s/%s: SortedReduce differs from serial", tc.name, op.Name)
			}
			got, err = b.Sorted(op, tc.values, tc.labels, tc.m, Config{})
			if err != nil {
				t.Fatalf("%s/%s: pooled Sorted: %v", tc.name, op.Name, err)
			}
			if !equalInt64(got.Multi, want.Multi) || !equalInt64(got.Reductions, want.Reductions) {
				t.Fatalf("%s/%s: pooled Sorted differs from serial", tc.name, op.Name)
			}
			red, err = b.SortedReduce(op, tc.values, tc.labels, tc.m, Config{})
			if err != nil {
				t.Fatalf("%s/%s: pooled SortedReduce: %v", tc.name, op.Name, err)
			}
			if !equalInt64(red, want.Reductions) {
				t.Fatalf("%s/%s: pooled SortedReduce differs from serial", tc.name, op.Name)
			}
		}
	}
}

// TestSortedCombineOrder uses a non-commutative operator (string
// concatenation) to prove the stable sort preserves Definition 1's
// combine order exactly — not merely the same multiset of operands.
func TestSortedCombineOrder(t *testing.T) {
	concat := Op[string]{
		Name:     "concat",
		Identity: "",
		Combine:  func(a, b string) string { return a + b },
	}
	values := []string{"a", "b", "c", "d", "e", "f", "g"}
	labels := []int{1, 0, 1, 1, 0, 2, 1}
	want, err := Serial(concat, values, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sorted(concat, values, labels, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Multi {
		if got.Multi[i] != want.Multi[i] {
			t.Fatalf("Multi[%d] = %q, want %q", i, got.Multi[i], want.Multi[i])
		}
	}
	for l := range want.Reductions {
		if got.Reductions[l] != want.Reductions[l] {
			t.Fatalf("Reductions[%d] = %q, want %q", l, got.Reductions[l], want.Reductions[l])
		}
	}
}

// TestSortedCancellation: a pre-cancelled context is reported before
// any work, and the kernels' stop polling aborts a scan mid-flight.
func TestSortedCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	values, labels := randInput(rng, 3000, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sorted(AddInt64, values, labels, 11, Config{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sorted pre-cancelled: %v", err)
	}
	if _, err := SortedReduce(AddInt64, values, labels, 11, Config{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SortedReduce pre-cancelled: %v", err)
	}

	// Kernel-level abort: a stop that trips after the first poll window
	// makes SortedScanLabels report false with partial output. The big n
	// guarantees at least one credit exhaustion.
	big, bigLabels := randInput(rng, 3*CancelStride, 4)
	idx, err := BuildSortedIndex(bigLabels, 4)
	if err != nil {
		t.Fatal(err)
	}
	multi := make([]int64, len(big))
	red := make([]int64, 4)
	polls := 0
	stop := func() bool { polls++; return polls > 1 }
	if SortedScanLabels(AddInt64, FastAdd, big, idx.Perm, idx.Start, multi, red, 0, 4, nil, stop) {
		t.Fatal("stop never aborted the scan")
	}
	if polls < 2 {
		t.Fatalf("stop polled %d times", polls)
	}
}

// TestSortedPanicRecovery: a panicking combine surfaces as the typed
// engine-panic error, not a crash.
func TestSortedPanicRecovery(t *testing.T) {
	boom := Op[int64]{
		Name:     "boom",
		Identity: 0,
		Combine:  func(a, b int64) int64 { panic("kaboom") },
	}
	_, err := Sorted(boom, []int64{1, 2}, []int{0, 0}, 1, Config{})
	var pe *EnginePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *EnginePanicError: %v", err, err)
	}
	if pe.Engine != "sorted" {
		t.Fatalf("Engine = %q", pe.Engine)
	}
}

// TestSortedFaultHookEvents: under a hook the engine takes the generic
// path and fires one Combine event per element, attributed to the
// sorted-scan phase.
func TestSortedFaultHookEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	values, labels := randInput(rng, 500, 9)
	in := fault.New()
	got, err := Sorted(AddInt64, values, labels, 9, Config{FaultHook: in})
	if err != nil {
		t.Fatal(err)
	}
	want := mustSerial(t, values, labels, 9)
	sameResult(t, "hooked", got, want)
	if c := in.Combines.Load(); c != int64(len(values)) {
		t.Fatalf("Combines = %d, want %d", c, len(values))
	}

	// And the injected panic at a chosen element is recovered.
	inj := fault.Seeded(7, len(values), PhaseSortedScan)
	_, err = Sorted(AddInt64, values, labels, 9, Config{FaultHook: inj})
	var pe *EnginePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic came back as %T: %v", err, err)
	}
	if pe.Phase != PhaseSortedScan {
		t.Fatalf("Phase = %q", pe.Phase)
	}
}

// TestSortedRejectsBadInput mirrors the other engines' validation.
func TestSortedRejectsBadInput(t *testing.T) {
	if _, err := Sorted(AddInt64, []int64{1}, []int{5}, 2, Config{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("out-of-range label: %v", err)
	}
	if _, err := SortedReduce(AddInt64, []int64{1}, []int{0}, -1, Config{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative m: %v", err)
	}
	if _, err := Sorted(AddInt64, []int64{1, 2}, []int{0}, 1, Config{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("length mismatch: %v", err)
	}
}
