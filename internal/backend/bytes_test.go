package backend

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"multiprefix/internal/core"
)

// firstUseEngines are the backends whose plans allocate their Run and
// Reduce storage on first use: the three the service serves (auto,
// serial, chunked) and the sorted family.
var firstUseEngines = []string{"auto", "serial", "sorted", "sharded", "chunked"}

// randLabels draws n labels uniformly from [0, m).
func randLabels(n, m int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	return labels
}

// liveHeap is the heap still reachable after full collections: two,
// so that sync.Pool victims from earlier work are gone too.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPlanBytesHeapDelta checks Plan.Bytes against the heap: after a
// build and one RunBatch, the bytes a plan reports are within 5% of the
// live heap the build and the run left behind, on every first-use
// backend, at the service benchmark's shape (n=2^16, m=256) and at a
// large label space (n=2^20, m=2^16).
func TestPlanBytesHeapDelta(t *testing.T) {
	for _, sh := range []struct{ n, m int }{{1 << 16, 256}, {1 << 20, 1 << 16}} {
		labels := randLabels(sh.n, sh.m, int64(sh.m))
		values := make([]int64, sh.n)
		dst := make([]int64, sh.n)
		for i := range values {
			values[i] = int64(i % 7)
		}
		for _, name := range firstUseEngines {
			be, err := Open[int64](name)
			if err != nil {
				t.Fatal(err)
			}
			before := liveHeap()
			plan, err := be.Plan(core.AddInt64, labels, sh.m, core.Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			d, s := [1][]int64{dst}, [1][]int64{values}
			if err := plan.RunBatch(d[:], s[:]); err != nil {
				t.Fatal(err)
			}
			heap := liveHeap() - before
			runtime.KeepAlive(labels) // the caller's inputs are not the plan's
			runtime.KeepAlive(d)
			runtime.KeepAlive(s)
			got := plan.Bytes()
			plan.Close()
			t.Logf("n=%d m=%d %s: Bytes %d, heap delta %d (%.3f)", sh.n, sh.m, name, got, heap, float64(got)/float64(heap))
			if diff := got - heap; diff > heap/20 || -diff > heap/20 {
				t.Errorf("n=%d m=%d %s: Bytes() = %d, heap delta %d: off by more than 5%%", sh.n, sh.m, name, got, heap)
			}
		}
	}
}

// TestPlanResultStorageOnFirstUse pins what a plan holds before and
// after each kind of use: a build keeps no result storage, a prefix
// batch adds only the m-slot reduction scratch, Run adds the n-slot
// prefix vector, and Bind, which evaluates straight into the
// snapshot, adds none.
func TestPlanResultStorageOnFirstUse(t *testing.T) {
	const n, m = 1 << 12, 64
	labels := randLabels(n, m, 3)
	values := make([]int64, n)
	d, s := [1][]int64{make([]int64, n)}, [1][]int64{values}
	for _, name := range firstUseEngines {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		built := plan.Bytes()
		if plan.multi != nil || (name != "auto" && plan.red != nil) {
			t.Errorf("%s: result storage allocated at build", name)
		}
		if err := plan.RunBatch(d[:], s[:]); err != nil {
			t.Fatal(err)
		}
		if plan.multi != nil || len(plan.red) != m {
			t.Errorf("%s: a prefix batch holds multi %d, red %d; want 0, %d", name, len(plan.multi), len(plan.red), m)
		}
		if _, err := plan.Run(values); err != nil {
			t.Fatal(err)
		}
		if grew := plan.Bytes() - built; len(plan.multi) != n || grew < 8*n {
			t.Errorf("%s: Run holds multi %d (Bytes grew %d); want %d", name, len(plan.multi), grew, n)
		}
		plan.Close()
	}

	// A serial plan bound at n=2^14, m=256 holds its labels (65,536
	// bytes), the resident values, the snapshot's prefixes, the class
	// positions and the class trees (131,072 each), the snapshot's
	// reductions and the batch's reduction scratch (2,048 each) and
	// the tier's index (65,536 + 1,028): 660,484 bytes, and no multi.
	const bn, bm, boundSerial = 1 << 14, 256, 660_484
	bLabels := randLabels(bn, bm, 5)
	bValues := make([]int64, bn)
	for i := range bValues {
		bValues[i] = int64(i%9) - 4
	}
	want, err := core.Serial(core.AddInt64, bValues, bLabels, bm)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range firstUseEngines {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, bLabels, bm, core.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Bind(bValues); err != nil {
			t.Fatal(err)
		}
		if plan.multi != nil {
			t.Errorf("%s: Bind holds multi %d, want none", name, len(plan.multi))
		}
		if got := plan.Bytes(); name == "serial" && got != boundSerial {
			t.Errorf("serial: bound plan holds %d bytes, want %d", got, boundSerial)
		}
		// A later Run writes the plan's own storage, not the snapshot.
		if _, err := plan.Run(make([]int64, bn)); err != nil {
			t.Fatal(err)
		}
		multi, red := make([]int64, bn), make([]int64, bm)
		if _, err := plan.Snapshot(multi, red); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(multi, want.Multi) || !slices.Equal(red, want.Reductions) {
			t.Errorf("%s: snapshot after Run differs from serial", name)
		}
		plan.Close()
	}
}

// TestPlanFirstUseConcurrent drives the first uses of one plan's lazily
// allocated result storage from many goroutines at once: prefix and
// reduction batches, Run and Reduce. Every batch answer must be the
// serial one; the race detector checks the lazy allocations.
func TestPlanFirstUseConcurrent(t *testing.T) {
	const n, m, goroutines = 3000, 29, 8
	labels := randLabels(n, m, 11)
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i%13) - 6
	}
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range firstUseEngines {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := [1][]int64{values}
				switch g % 4 {
				case 0:
					dst := [1][]int64{make([]int64, n)}
					if err := plan.RunBatch(dst[:], src[:]); err != nil || !slices.Equal(dst[0], want.Multi) {
						t.Errorf("%s: RunBatch: %v", name, err)
					}
				case 1:
					dst := [1][]int64{make([]int64, m)}
					if err := plan.ReduceBatch(dst[:], src[:]); err != nil || !slices.Equal(dst[0], want.Reductions) {
						t.Errorf("%s: ReduceBatch: %v", name, err)
					}
				case 2:
					// Run's result aliases plan storage the next call
					// overwrites, so only the error is checked here.
					if _, err := plan.Run(values); err != nil {
						t.Errorf("%s: Run: %v", name, err)
					}
				case 3:
					if _, err := plan.Reduce(values); err != nil {
						t.Errorf("%s: Reduce: %v", name, err)
					}
				}
			}()
		}
		wg.Wait()
		res, err := plan.Run(values)
		if err != nil || !slices.Equal(res.Multi, want.Multi) || !slices.Equal(res.Reductions, want.Reductions) {
			t.Errorf("%s: Run after the concurrent first uses: %v", name, err)
		}
		plan.Close()
	}
}

// TestPlanRefusesWideLabelSpace checks the typed refusal of a label
// space beyond int32 on every registered backend, before anything
// m-sized is allocated: an m-sized bool vector alone would be 2 GiB.
func TestPlanRefusesWideLabelSpace(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits wide: m cannot exceed math.MaxInt32")
	}
	wide := int64(math.MaxInt32)
	m := int(wide + 1)
	labels := []int{0, 1, 2, 1}
	for _, name := range Names() {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 2})
		runtime.ReadMemStats(&after)
		if err == nil || !errors.Is(err, core.ErrBadInput) {
			if plan != nil {
				plan.Close()
			}
			t.Fatalf("%s: m=%d: err = %v, want ErrBadInput", name, m, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: the refusal allocated %d bytes", name, grew)
		}
	}
}

// TestSerialBatchCallHookFree runs the ladder's serial rung on every
// service backend's plan with a hook that panics on any combine: the
// rung must not observe it, must answer bit-identically to the serial
// engine in both forms, and must still honour the call's context.
func TestSerialBatchCallHookFree(t *testing.T) {
	const n, m = 2048, 17
	labels := randLabels(n, m, 5)
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i%11) - 5
	}
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	boom := &atCombine{at: 1, fire: func() { panic("hook observed") }}
	for _, name := range firstUseEngines {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		src := [1][]int64{values}
		multi, red := [1][]int64{make([]int64, n)}, [1][]int64{make([]int64, m)}
		if err := plan.SerialBatchCall(Call{Hook: boom}, multi[:], src[:], true); err != nil || !slices.Equal(multi[0], want.Multi) {
			t.Errorf("%s: prefix rung: %v", name, err)
		}
		if err := plan.SerialBatchCall(Call{Hook: boom}, red[:], src[:], false); err != nil || !slices.Equal(red[0], want.Reductions) {
			t.Errorf("%s: reduction rung: %v", name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := plan.SerialBatchCall(Call{Ctx: ctx}, red[:], src[:], false); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled rung: err = %v, want context.Canceled", name, err)
		}
		if err := plan.SerialBatchCall(Call{}, red[:], src[:], true); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s: m-slot destination for a prefix rung: err = %v, want ErrBadInput", name, err)
		}
		plan.Close()
	}
}
