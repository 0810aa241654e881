package core

import (
	"math/rand"
	"testing"
)

// genericAddInt64 is AddInt64 without the FastOp capability: it forces
// the generic per-element Combine path through the pooled engines.
var genericAddInt64 = Op[int64]{
	Name:       "+int64 (generic)",
	Identity:   0,
	Combine:    func(a, b int64) int64 { return a + b },
	IsIdentity: func(x int64) bool { return x == 0 },
}

// allocInput is shared by the allocation tests: large enough that every
// engine takes its real code path (multiple chunks, multi-row grid),
// small enough to keep AllocsPerRun rounds fast.
func allocInput() ([]int64, []int, int) {
	const n, m = 1 << 14, 256
	rng := rand.New(rand.NewSource(42))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	return values, labels, m
}

// TestPooledZeroAllocs asserts the tentpole property: steady-state
// pooled Compute/Reduce on the int64-sum fast path performs zero heap
// allocations on every engine. AllocsPerRun runs each body once for
// warm-up before measuring, which is exactly when the pooled buffers
// and worker teams get built.
func TestPooledZeroAllocs(t *testing.T) {
	values, labels, m := allocInput()
	labels32 := narrowLabels(labels)
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	cfg := Config{Workers: 4}
	cases := []struct {
		name string
		run  func()
	}{
		{"serial", func() {
			if _, err := b.Serial(AddInt64, values, labels, m); err != nil {
				t.Fatal(err)
			}
		}},
		{"serial-reduce", func() {
			if _, err := b.SerialReduce(AddInt64, values, labels, m); err != nil {
				t.Fatal(err)
			}
		}},
		{"spinetree", func() {
			if _, err := b.Spinetree(AddInt64, values, labels, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"spinetree-reduce", func() {
			if _, err := b.SpinetreeReduce(AddInt64, values, labels, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"chunked", func() {
			if _, err := b.Chunked(AddInt64, values, labels, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"chunked-reduce", func() {
			if _, err := b.ChunkedReduce(AddInt64, values, labels, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"parallel", func() {
			if _, err := b.Parallel(AddInt64, values, labels, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"parallel-reduce", func() {
			if _, err := b.ParallelReduce(AddInt64, values, labels, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		// A plan's int32 labels through the same pooled engines.
		{"spinetree-int32", func() {
			if _, err := SpinetreeIn(b, AddInt64, values, labels32, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"spinetree-reduce-int32", func() {
			if _, err := SpinetreeReduceIn(b, AddInt64, values, labels32, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"parallel-int32", func() {
			if _, err := ParallelIn(b, AddInt64, values, labels32, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"parallel-reduce-int32", func() {
			if _, err := ParallelReduceIn(b, AddInt64, values, labels32, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		tc.run() // warm the buffers and team outside the measurement
		if allocs := testing.AllocsPerRun(5, tc.run); allocs != 0 {
			t.Errorf("%s: %.1f allocs/run, want 0", tc.name, allocs)
		}
	}
}

// oneShotChunkedAllocBound pins the one-shot chunked engines' per-call
// allocation count. A one-shot call inherently allocates the result
// storage the caller keeps, its runner's flat bucket, seen-mark and
// touched-list arrays, and a worker team that is closed before the
// call returns — a count that must stay flat in log2(m). Append-growth
// of per-chunk label lists once put the generic variant at 64
// allocs/op at n=2^16 in the committed benchmark snapshot; the bound
// fails loudly if per-call growth ever creeps back in.
const oneShotChunkedAllocBound = 28

// TestOneShotChunkedAllocBound measures the package-level Chunked and
// ChunkedReduce on the generic path at the benchmark's shape.
func TestOneShotChunkedAllocBound(t *testing.T) {
	const n, m = 1 << 16, 256
	rng := rand.New(rand.NewSource(43))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	cfg := Config{Workers: 4}
	run := func() {
		if _, err := Chunked(genericAddInt64, values, labels, m, cfg); err != nil {
			t.Fatal(err)
		}
	}
	reduce := func() {
		if _, err := ChunkedReduce(genericAddInt64, values, labels, m, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	reduce() // warm up outside the measurement
	bound := float64(oneShotChunkedAllocBound)
	if raceDetectorEnabled {
		// The race runtime allocates shadow state for each of the
		// per-call worker goroutines; give the exact pin headroom for
		// those non-product allocations.
		bound += 8
	}
	if allocs := testing.AllocsPerRun(10, run); allocs > bound {
		t.Errorf("Chunked generic: %.1f allocs/run, want <= %.0f", allocs, bound)
	}
	if allocs := testing.AllocsPerRun(10, reduce); allocs > bound {
		t.Errorf("ChunkedReduce generic: %.1f allocs/run, want <= %.0f", allocs, bound)
	}
}

// genericAllocBound is the documented steady-state allocation bound
// for the pooled *generic* path (an operator without a FastOp
// declaration): the engines themselves still allocate nothing — the
// bound exists only as headroom for closure-calling-convention changes
// across Go releases, and the test pins it so a real regression (a new
// per-element or per-call allocation) fails loudly.
const genericAllocBound = 2

// TestPooledGenericAllocBound pins the generic pooled path's
// steady-state allocation count to at most genericAllocBound.
func TestPooledGenericAllocBound(t *testing.T) {
	values, labels, m := allocInput()
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	cfg := Config{Workers: 4}
	cases := []struct {
		name string
		run  func()
	}{
		{"serial", func() {
			if _, err := b.Serial(genericAddInt64, values, labels, m); err != nil {
				t.Fatal(err)
			}
		}},
		{"spinetree", func() {
			if _, err := b.Spinetree(genericAddInt64, values, labels, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"chunked", func() {
			if _, err := b.Chunked(genericAddInt64, values, labels, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"parallel", func() {
			if _, err := b.Parallel(genericAddInt64, values, labels, m, cfg); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		tc.run()
		if allocs := testing.AllocsPerRun(5, tc.run); allocs > genericAllocBound {
			t.Errorf("%s: %.1f allocs/run, want <= %d", tc.name, allocs, genericAllocBound)
		}
	}
}
