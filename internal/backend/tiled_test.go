package backend

import (
	"math"
	"math/rand"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// tiledCfg forces the cache-tiled sorted kernels at test-sized inputs:
// a 4 KiB tile budget gives a 256-element window, so any n above that
// spans multiple tiles. The budget only re-orders memory traffic —
// results must stay bit-identical to the untiled and serial paths.
func tiledCfg(workers int) core.Config {
	return core.Config{
		Workers: workers,
		AutoCal: &core.AutoCalibration{TileBytes: 1 << 12},
	}
}

// TestTiledPlanParity drives the tiled sorted plan — serial and
// team-parallel, both fast ops — across the carry-stressing label
// shapes and checks Run and Reduce against the serial reference.
func TestTiledPlanParity(t *testing.T) {
	const n = 1023
	rng := rand.New(rand.NewSource(71))
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
			for _, workers := range []int{1, 2, 4} {
				plan, err := be.Plan(op, shape.labels, shape.m, tiledCfg(workers))
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", shape.name, op.Name, workers, err)
				}
				if !plan.Tiled() {
					t.Fatalf("%s/%s/w%d: plan not tiled at n=%d window=256", shape.name, op.Name, workers, n)
				}
				for round := 0; round < 2; round++ {
					res, err := plan.Run(values)
					if err != nil {
						t.Fatalf("%s/%s/w%d: %v", shape.name, op.Name, workers, err)
					}
					if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
						t.Fatalf("%s/%s/w%d round %d: tiled Run differs from serial", shape.name, op.Name, workers, round)
					}
					red, err := plan.Reduce(values)
					if err != nil {
						t.Fatalf("%s/%s/w%d reduce: %v", shape.name, op.Name, workers, err)
					}
					if !equalInt64(red, want.Reductions) {
						t.Fatalf("%s/%s/w%d round %d: tiled Reduce differs from serial", shape.name, op.Name, workers, round)
					}
				}
				plan.Close()
			}
		}
	}
}

// TestTiledPlanFloat64BitExact pins the tiled kernels' zero-
// reassociation guarantee on float64: sums over values spanning many
// magnitudes (where any re-grouping changes rounding), NaN and ±0 must
// reproduce the untiled combine order bit for bit. At one worker the
// untiled order IS the serial order, so the reference is core.Serial;
// at four workers the carry exchange re-associates runs that span
// shards the same way tiled or not, so the reference is the untiled
// plan at the same worker count (tile budget far above n, so no window
// exists).
func TestTiledPlanFloat64BitExact(t *testing.T) {
	const n, m = 2000, 13
	rng := rand.New(rand.NewSource(73))
	values := make([]float64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(24)-12))
		labels[i] = rng.Intn(m)
	}
	values[100] = math.NaN()
	values[200] = math.Copysign(0, -1)
	values[300] = 0
	untiledCfg := func(workers int) core.Config {
		return core.Config{
			Workers: workers,
			AutoCal: &core.AutoCalibration{TileBytes: 1 << 30},
		}
	}
	for _, op := range []core.Op[float64]{core.AddFloat64, core.MaxFloat64} {
		be, err := Open[float64]("sorted")
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			var wantMulti, wantRed []float64
			if workers == 1 {
				want, err := core.Serial(op, values, labels, m)
				if err != nil {
					t.Fatal(err)
				}
				wantMulti, wantRed = want.Multi, want.Reductions
			} else {
				ref, err := be.Plan(op, labels, m, untiledCfg(workers))
				if err != nil {
					t.Fatal(err)
				}
				if ref.Tiled() {
					t.Fatalf("%s/w%d: reference plan unexpectedly tiled", op.Name, workers)
				}
				res, err := ref.Run(values)
				if err != nil {
					t.Fatal(err)
				}
				wantMulti = append([]float64(nil), res.Multi...)
				wantRed = append([]float64(nil), res.Reductions...)
				ref.Close()
			}
			plan, err := be.Plan(op, labels, m, tiledCfg(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Tiled() {
				t.Fatalf("%s/w%d: plan not tiled", op.Name, workers)
			}
			res, err := plan.Run(values)
			if err != nil {
				t.Fatalf("%s/w%d: %v", op.Name, workers, err)
			}
			for i := range wantMulti {
				if math.Float64bits(res.Multi[i]) != math.Float64bits(wantMulti[i]) {
					t.Fatalf("%s/w%d: Multi[%d] = %x, want %x (not bit-identical)",
						op.Name, workers, i, math.Float64bits(res.Multi[i]), math.Float64bits(wantMulti[i]))
				}
			}
			for l := range wantRed {
				if math.Float64bits(res.Reductions[l]) != math.Float64bits(wantRed[l]) {
					t.Fatalf("%s/w%d: Reductions[%d] not bit-identical", op.Name, workers, l)
				}
			}
			plan.Close()
		}
	}
}

// TestTiledBatchParity covers the batch entry points through the tiled
// dispatch: RunBatch and ReduceBatch on a tiled plan, serial and team.
func TestTiledBatchParity(t *testing.T) {
	const n, m, k = 1500, 24, 3
	rng := rand.New(rand.NewSource(75))
	labels, srcs, multiDsts, redDsts := batchInput(rng, n, m, k)
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		plan, err := be.Plan(core.AddInt64, labels, m, tiledCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Tiled() {
			t.Fatalf("w%d: plan not tiled", workers)
		}
		for round := 0; round < 2; round++ {
			if err := plan.RunBatch(multiDsts, srcs); err != nil {
				t.Fatalf("w%d round %d: RunBatch: %v", workers, round, err)
			}
			if err := plan.ReduceBatch(redDsts, srcs); err != nil {
				t.Fatalf("w%d round %d: ReduceBatch: %v", workers, round, err)
			}
			for j := 0; j < k; j++ {
				want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInt64(multiDsts[j], want.Multi) {
					t.Fatalf("w%d round %d: RunBatch[%d] differs from serial", workers, round, j)
				}
				if !equalInt64(redDsts[j], want.Reductions) {
					t.Fatalf("w%d round %d: ReduceBatch[%d] differs from serial", workers, round, j)
				}
			}
		}
		plan.Close()
	}
}

// TestTiledPlanZeroAllocs extends the sorted engine's zero-allocation
// pin to the tiled dispatch: a warm tiled plan — serial and team —
// runs Run, Reduce, RunBatch and RunBatchCall at zero steady-state
// heap allocations. The tile segments, like the counting sort, are
// plan-owned storage built once.
func TestTiledPlanZeroAllocs(t *testing.T) {
	const n, m, k = 1 << 13, 128, 3
	rng := rand.New(rand.NewSource(79))
	labels, srcs, multiDsts, redDsts := batchInput(rng, n, m, k)
	values := srcs[0]
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		plan, err := be.Plan(core.AddInt64, labels, m, tiledCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Tiled() {
			t.Fatalf("w%d: plan not tiled", workers)
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
		runBatch := func() {
			if err := plan.RunBatch(multiDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		runBatchCall := func() {
			if err := plan.RunBatchCall(Call{}, multiDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		reduceBatch := func() {
			if err := plan.ReduceBatch(redDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		run()
		runBatch() // warm the plan storage, team and batch scratch
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Errorf("w%d: tiled Run %.1f allocs/run, want 0", workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduce); allocs != 0 {
			t.Errorf("w%d: tiled Reduce %.1f allocs/run, want 0", workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, runBatch); allocs != 0 {
			t.Errorf("w%d: tiled RunBatch %.1f allocs/run, want 0", workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, runBatchCall); allocs != 0 {
			t.Errorf("w%d: tiled RunBatchCall %.1f allocs/run, want 0", workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduceBatch); allocs != 0 {
			t.Errorf("w%d: tiled ReduceBatch %.1f allocs/run, want 0", workers, allocs)
		}
		plan.Close()
	}
}

// TestTiledShortSegmentGate pins the segment-length gate: at a
// production-sized window (512 KiB budget, 32768-element window) a plan
// whose average segment is shorter than window/256 elements stays
// untiled — the fixed per-tile-segment bookkeeping would not amortize —
// while longer segments tile. Test-sized windows keep the floor at one
// element, so the other tiled tests are unaffected by the gate.
func TestTiledShortSegmentGate(t *testing.T) {
	const n = 1 << 17 // > 3 windows of 32768, so TileWindow itself allows tiling
	rng := rand.New(rand.NewSource(83))
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 1, AutoCal: &core.AutoCalibration{TileBytes: 1 << 19}}
	for _, tc := range []struct {
		m     int
		tiled bool
	}{
		{m: 512, tiled: true},      // 256 elements/segment: tiles
		{m: 1 << 16, tiled: false}, // 2 elements/segment: gate holds it untiled
	} {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(tc.m)
		}
		plan, err := be.Plan(core.AddInt64, labels, tc.m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Tiled() != tc.tiled {
			t.Errorf("m=%d: Tiled() = %v, want %v", tc.m, plan.Tiled(), tc.tiled)
		}
		plan.Close()
	}
}

// TestTiledFaultHookDemotes: a FaultHook demotes the fast kind at
// dispatch, so a tiled plan with a hook runs the untiled generic path —
// the hook observes every combine and the results still match serial.
func TestTiledFaultHookDemotes(t *testing.T) {
	const n, m = 2000, 16
	rng := rand.New(rand.NewSource(77))
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
	inj := fault.Seeded(17, n, core.PhaseSortedScan)
	inj.PanicEvent = fault.EventNone // observe only
	be, err := Open[int64]("sorted")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiledCfg(4)
	cfg.FaultHook = inj
	plan, err := be.Plan(core.AddInt64, labels, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	if !plan.Tiled() {
		t.Fatal("plan not tiled (tiles are value-independent and built regardless of hooks)")
	}
	res, err := plan.Run(values)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
		t.Fatal("hooked run on tiled plan differs from serial")
	}
	if inj.Combines.Load() == 0 {
		t.Fatal("fault hook never observed a combine: run did not demote to the generic path")
	}
}

// FuzzTiledParity cross-checks the tiled sorted plan against the serial
// reference on fuzz-chosen shapes: random labels, the single-run and
// all-distinct-label extremes, identity-valued elements, both fast ops,
// across worker counts — with the tile window forced small so even
// fuzz-sized inputs span many tiles.
func FuzzTiledParity(f *testing.F) {
	f.Add(int64(1), uint16(1024), uint8(16), uint8(4), uint8(0))
	f.Add(int64(3), uint16(300), uint8(1), uint8(1), uint8(1))
	f.Add(int64(5), uint16(2048), uint8(3), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mRaw, wRaw, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 4096
		workers := int(wRaw)%5 + 1
		var labels []int
		var m int
		switch shape % 3 {
		case 0: // random labels
			m = int(mRaw)%64 + 1
			labels = make([]int, n)
			for i := range labels {
				labels[i] = rng.Intn(m)
			}
		case 1: // single run: one label swallows every tile boundary
			m = 1
			labels = make([]int, n)
		default: // all-distinct: every segment is one element long
			m = max(n, 1)
			labels = make([]int, n)
			for i := range labels {
				labels[i] = i
			}
		}
		for _, op := range []core.Op[int64]{core.AddInt64, core.MaxInt64, core.MinInt64, core.AndInt64, core.OrInt64, core.XorInt64} {
			values := make([]int64, n)
			for i := range values {
				if rng.Intn(8) == 0 {
					values[i] = op.Identity
				} else {
					values[i] = int64(rng.Intn(64)) - 8
				}
			}
			want, err := core.Serial(op, values, labels, m)
			if err != nil {
				t.Fatal(err)
			}
			be, err := Open[int64]("sorted")
			if err != nil {
				t.Fatal(err)
			}
			plan, err := be.Plan(op, labels, m, tiledCfg(workers))
			if err != nil {
				t.Fatal(err)
			}
			if n > 3*256 && !plan.Tiled() {
				t.Fatalf("plan not tiled: n=%d window=256", n)
			}
			for round := 0; round < 2; round++ {
				res, err := plan.Run(values)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
					t.Fatalf("%s: tiled differs: n=%d m=%d workers=%d shape=%d round=%d",
						op.Name, n, m, workers, shape%3, round)
				}
				red, err := plan.Reduce(values)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInt64(red, want.Reductions) {
					t.Fatalf("%s: tiled reduce differs: n=%d m=%d workers=%d", op.Name, n, m, workers)
				}
			}
			plan.Close()
		}
	})
}
