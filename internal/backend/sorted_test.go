package backend

import (
	"errors"
	"math/rand"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// sortedShapes builds label vectors that stress the shard
// decomposition's edges: a single giant run swallowing several shards,
// runs aligned exactly on shard boundaries, leading/trailing empty
// labels, heavy skew, and a sparse label space.
func sortedShapes(rng *rand.Rand, n int) []struct {
	name   string
	labels []int
	m      int
} {
	uniform := make([]int, n)
	for i := range uniform {
		uniform[i] = rng.Intn(7)
	}
	one := make([]int, n) // one run across every shard boundary
	giant := make([]int, n)
	for i := range giant { // giant middle run, small runs at the rims
		switch {
		case i < n/8:
			giant[i] = 0
		case i >= n-n/8:
			giant[i] = 2
		default:
			giant[i] = 1
		}
	}
	aligned := make([]int, n) // run boundaries coincide with 4-shard bounds
	for i := range aligned {
		aligned[i] = i * 4 / n
	}
	skew := make([]int, n)
	for i := range skew {
		if rng.Intn(10) < 8 {
			skew[i] = 3
		} else {
			skew[i] = rng.Intn(16)
		}
	}
	sparse := make([]int, n) // most labels empty, incl. leading/trailing
	for i := range sparse {
		sparse[i] = 50 + rng.Intn(20)
	}
	return []struct {
		name   string
		labels []int
		m      int
	}{
		{"uniform", uniform, 7},
		{"one-label", one, 1},
		{"giant-run", giant, 3},
		{"boundary-aligned", aligned, 4},
		{"skewed", skew, 16},
		{"sparse-empty-rims", sparse, 200},
	}
}

// TestSortedPlanCarryMatrix runs the planned parallel sorted engine
// across a worker × label-shape matrix against the serial reference —
// every carry case: runs straddling one or several boundaries, shards
// wholly inside a run, boundary-aligned runs (no straddle), and empty
// labels owned by interior shards.
func TestSortedPlanCarryMatrix(t *testing.T) {
	const n = 1023 // off the power-of-two shard bounds
	rng := rand.New(rand.NewSource(81))
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range sortedShapes(rng, n) {
		values := make([]int64, n)
		for i := range values {
			values[i] = int64(rng.Intn(200) - 100)
		}
		for _, op := range []core.Op[int64]{core.AddInt64, core.MaxInt64, core.MinInt64, core.AndInt64, core.OrInt64, core.XorInt64} {
			want, err := core.Serial(op, values, shape.labels, shape.m)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 4, 8} {
				plan, err := be.Plan(op, shape.labels, shape.m, core.Config{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", shape.name, op.Name, workers, err)
				}
				for round := 0; round < 2; round++ {
					res, err := plan.Run(values)
					if err != nil {
						t.Fatalf("%s/%s/w%d: %v", shape.name, op.Name, workers, err)
					}
					if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
						t.Fatalf("%s/%s/w%d round %d: Run differs from serial", shape.name, op.Name, workers, round)
					}
					red, err := plan.Reduce(values)
					if err != nil {
						t.Fatalf("%s/%s/w%d reduce: %v", shape.name, op.Name, workers, err)
					}
					if !equalInt64(red, want.Reductions) {
						t.Fatalf("%s/%s/w%d round %d: Reduce differs from serial", shape.name, op.Name, workers, round)
					}
				}
				plan.Close()
			}
		}
	}
}

// TestSortedPlanGenericOp drives the planned sorted engine (serial and
// parallel) through the generic kernels with a non-commutative
// operator: combine order through the permutation, the carry exchange
// and the seeded rescan must reproduce the serial order exactly.
func TestSortedPlanGenericOp(t *testing.T) {
	concat := core.Op[string]{
		Name:     "concat",
		Identity: "",
		Combine:  func(a, b string) string { return a + b },
	}
	const n, m = 157, 5
	rng := rand.New(rand.NewSource(83))
	values := make([]string, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = string(rune('a' + i%26))
		labels[i] = rng.Intn(m)
	}
	want, err := core.Serial(concat, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	be, err := Open[string]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 4} {
		plan, err := be.Plan(concat, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Run(values)
		if err != nil {
			t.Fatalf("w%d: %v", workers, err)
		}
		for i := range want.Multi {
			if res.Multi[i] != want.Multi[i] {
				t.Fatalf("w%d: Multi[%d] = %q, want %q", workers, i, res.Multi[i], want.Multi[i])
			}
		}
		for l := range want.Reductions {
			if res.Reductions[l] != want.Reductions[l] {
				t.Fatalf("w%d: Reductions[%d] = %q, want %q", workers, l, res.Reductions[l], want.Reductions[l])
			}
		}
		plan.Close()
	}
}

// TestSortedPlanZeroAllocs asserts the tentpole perf property for the
// sorted engine: a warm sorted Plan — serial and team-parallel — runs
// at zero steady-state heap allocations for Run and Reduce.
func TestSortedPlanZeroAllocs(t *testing.T) {
	values, labels, m := planAllocInput()
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := plan.Run(values); err != nil {
				t.Fatal(err)
			}
		}
		reduce := func() {
			if _, err := plan.Reduce(values); err != nil {
				t.Fatal(err)
			}
		}
		run()
		reduce() // warm the plan storage and the worker team
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Errorf("w%d: Run %.1f allocs/run, want 0", workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduce); allocs != 0 {
			t.Errorf("w%d: Reduce %.1f allocs/run, want 0", workers, allocs)
		}
		plan.Close()
	}
}

// TestSortedPlanPanicRecovery: an injected combine panic inside the
// parallel scan surfaces as the typed engine-panic error attributed to
// the sorted engine, and the team survives for the next run.
func TestSortedPlanPanicRecovery(t *testing.T) {
	const n, m = 2000, 16
	rng := rand.New(rand.NewSource(85))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.Seeded(13, n, core.PhaseSortedScan)
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 4, FaultHook: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	var pe *core.EnginePanicError
	if _, err := plan.Run(values); !errors.As(err, &pe) {
		t.Fatalf("want EnginePanicError, got %v", err)
	}
	if pe.Engine != "plan/sorted" {
		t.Fatalf("Engine = %q", pe.Engine)
	}
	if inj.Combines.Load() == 0 {
		t.Fatal("fault hook never fired")
	}

	// Disarm the injector: the same plan (same team) must now succeed.
	inj.PanicEvent = fault.EventNone
	res, err := plan.Run(values)
	if err != nil {
		t.Fatalf("run after recovered panic: %v", err)
	}
	if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
		t.Fatal("post-recovery run differs from serial")
	}
}

// FuzzSortedParity cross-checks the sorted backend — one-shot and
// planned, across worker counts — against the serial reference on
// fuzz-chosen shapes.
func FuzzSortedParity(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(16), uint8(4))
	f.Add(int64(3), uint16(1), uint8(1), uint8(2))
	f.Add(int64(5), uint16(777), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mRaw, wRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 2048
		m := int(mRaw)%64 + 1
		workers := int(wRaw)%5 + 1
		values := make([]int64, n)
		labels := make([]int, n)
		for i := range values {
			values[i] = int64(rng.Intn(64)) - 8
			labels[i] = rng.Intn(m)
		}
		want, err := core.Serial(core.AddInt64, values, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compute("sorted", core.AddInt64, values, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("one-shot sorted differs: n=%d m=%d", n, m)
		}
		be, err := Open[int64]("sorted")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer plan.Close()
		for round := 0; round < 2; round++ {
			res, err := plan.Run(values)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
				t.Fatalf("planned sorted differs: n=%d m=%d workers=%d round=%d", n, m, workers, round)
			}
			red, err := plan.Reduce(values)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt64(red, want.Reductions) {
				t.Fatalf("planned sorted reduce differs: n=%d m=%d workers=%d", n, m, workers)
			}
		}
	})
}
