package backend

import (
	"errors"
	"math/rand"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
	"multiprefix/internal/par"
)

// TestShardedPlanParityMatrix runs the planned sharded engine across a
// shard-count × label-shape matrix against the serial reference: runs
// swallowing several shards, boundary-aligned runs, heavy skew, sparse
// label spaces with empty rims — every carry-exchange case including
// non-power-of-two shard counts (partial final exchange distances).
func TestShardedPlanParityMatrix(t *testing.T) {
	const n = 1023
	rng := rand.New(rand.NewSource(91))
	be, err := Open[int64]("sharded")
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
			for _, shards := range []int{1, 2, 3, 5, 7, 8} {
				plan, err := be.Plan(op, shape.labels, shape.m, core.Config{Shards: shards})
				if err != nil {
					t.Fatalf("%s/%s/s%d: %v", shape.name, op.Name, shards, err)
				}
				for round := 0; round < 2; round++ {
					res, err := plan.Run(values)
					if err != nil {
						t.Fatalf("%s/%s/s%d: %v", shape.name, op.Name, shards, err)
					}
					if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
						t.Fatalf("%s/%s/s%d round %d: Run differs from serial", shape.name, op.Name, shards, round)
					}
					red, err := plan.Reduce(values)
					if err != nil {
						t.Fatalf("%s/%s/s%d reduce: %v", shape.name, op.Name, shards, err)
					}
					if !equalInt64(red, want.Reductions) {
						t.Fatalf("%s/%s/s%d round %d: Reduce differs from serial", shape.name, op.Name, shards, round)
					}
				}
				plan.Close()
			}
		}
	}
}

// TestShardedFloat64Parity checks the float64 fast kernels through the
// exchange on integer-valued inputs, where float64 addition is exact
// and the re-parenthesized exchange fold must be bit-identical to the
// serial left fold.
func TestShardedFloat64Parity(t *testing.T) {
	const n, m = 777, 13
	rng := rand.New(rand.NewSource(93))
	values := make([]float64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = float64(rng.Intn(64) - 32)
		labels[i] = rng.Intn(m)
	}
	for _, op := range []core.Op[float64]{core.AddFloat64, core.MaxFloat64, core.MinFloat64} {
		want, err := core.Serial(op, values, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 5, 8} {
			res, err := Compute("sharded", op, values, labels, m, core.Config{Shards: shards})
			if err != nil {
				t.Fatalf("%s/s%d: %v", op.Name, shards, err)
			}
			for i := range want.Multi {
				if res.Multi[i] != want.Multi[i] {
					t.Fatalf("%s/s%d: Multi[%d] = %v, want %v", op.Name, shards, i, res.Multi[i], want.Multi[i])
				}
			}
			for l := range want.Reductions {
				if res.Reductions[l] != want.Reductions[l] {
					t.Fatalf("%s/s%d: Reductions[%d] = %v, want %v", op.Name, shards, l, res.Reductions[l], want.Reductions[l])
				}
			}
		}
	}
}

// TestShardedGenericOrder drives the generic kernels with a
// non-commutative operator: the exchange combines rows left-to-right
// (earlier shards always the left operand) and the seeded rescan never
// commutes, so string concatenation must reproduce the serial order
// exactly across every shard count.
func TestShardedGenericOrder(t *testing.T) {
	const n, m = 157, 5
	rng := rand.New(rand.NewSource(95))
	values := make([]string, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = string(rune('a' + i%26))
		labels[i] = rng.Intn(m)
	}
	want, err := core.Serial(core.ConcatString, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	be, err := Open[string]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 4, 7} {
		plan, err := be.Plan(core.ConcatString, labels, m, core.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Run(values)
		if err != nil {
			t.Fatalf("s%d: %v", shards, err)
		}
		for i := range want.Multi {
			if res.Multi[i] != want.Multi[i] {
				t.Fatalf("s%d: Multi[%d] = %q, want %q", shards, i, res.Multi[i], want.Multi[i])
			}
		}
		for l := range want.Reductions {
			if res.Reductions[l] != want.Reductions[l] {
				t.Fatalf("s%d: Reductions[%d] = %q, want %q", shards, l, res.Reductions[l], want.Reductions[l])
			}
		}
		plan.Close()
	}
}

// TestShardedRounds asserts the tentpole round-efficiency property: a
// completed Run executes exactly ⌈log₂S⌉ carry-exchange rounds, and a
// k-vector batch exactly k·⌈log₂S⌉.
func TestShardedRounds(t *testing.T) {
	const n, m = 4096, 32
	rng := rand.New(rand.NewSource(97))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	be, err := Open[int64]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ shards, rounds int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {7, 3}, {8, 3},
	} {
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Run(values); err != nil {
			t.Fatal(err)
		}
		st, ok := plan.ShardStats()
		if !ok {
			t.Fatalf("s%d: ShardStats not available on a sharded plan", tc.shards)
		}
		if st.Shards != tc.shards {
			t.Fatalf("s%d: Shards = %d", tc.shards, st.Shards)
		}
		if st.Rounds != tc.rounds {
			t.Fatalf("s%d: Rounds = %d, want %d", tc.shards, st.Rounds, tc.rounds)
		}
		if st.MeasuredRounds != tc.rounds {
			t.Fatalf("s%d: MeasuredRounds = %d, want %d", tc.shards, st.MeasuredRounds, tc.rounds)
		}
		if tc.shards > 1 {
			const k = 3
			dsts := make([][]int64, k)
			srcs := make([][]int64, k)
			for i := range srcs {
				dsts[i] = make([]int64, n)
				srcs[i] = values
			}
			if err := plan.RunBatch(dsts, srcs); err != nil {
				t.Fatal(err)
			}
			st, _ = plan.ShardStats()
			if st.MeasuredRounds != k*tc.rounds {
				t.Fatalf("s%d batch: MeasuredRounds = %d, want %d", tc.shards, st.MeasuredRounds, k*tc.rounds)
			}
		}
		plan.Close()
	}
}

// TestShardedBatchParity checks the fused batch bodies — including the
// trailing per-vector barrier that isolates one vector's carry reads
// from the next vector's pass 1 — against per-vector serial runs.
func TestShardedBatchParity(t *testing.T) {
	const n, m, k = 911, 17, 4
	rng := rand.New(rand.NewSource(99))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	srcs := make([][]int64, k)
	for v := range srcs {
		srcs[v] = make([]int64, n)
		for i := range srcs[v] {
			srcs[v][i] = int64(rng.Intn(200) - 100)
		}
	}
	be, err := Open[int64]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []core.Op[int64]{core.AddInt64, core.MaxInt64, core.XorInt64} {
		for _, shards := range []int{1, 2, 4, 6} {
			plan, err := be.Plan(op, labels, m, core.Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			multi := make([][]int64, k)
			reds := make([][]int64, k)
			for v := range srcs {
				multi[v] = make([]int64, n)
				reds[v] = make([]int64, m)
			}
			if err := plan.RunBatch(multi, srcs); err != nil {
				t.Fatalf("%s/s%d: %v", op.Name, shards, err)
			}
			if err := plan.ReduceBatch(reds, srcs); err != nil {
				t.Fatalf("%s/s%d: %v", op.Name, shards, err)
			}
			for v := range srcs {
				want, err := core.Serial(op, srcs[v], labels, m)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInt64(multi[v], want.Multi) {
					t.Fatalf("%s/s%d: batch vector %d multi differs", op.Name, shards, v)
				}
				if !equalInt64(reds[v], want.Reductions) {
					t.Fatalf("%s/s%d: batch vector %d reductions differ", op.Name, shards, v)
				}
			}
			plan.Close()
		}
	}
}

// TestShardedPlanZeroAllocs asserts the tentpole perf property: a warm
// sharded Plan — single-shard and team — runs at zero steady-state
// heap allocations for Run and Reduce.
func TestShardedPlanZeroAllocs(t *testing.T) {
	values, labels, m := planAllocInput()
	be, err := Open[int64]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Shards: shards})
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
			t.Errorf("s%d: Run %.1f allocs/run, want 0", shards, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduce); allocs != 0 {
			t.Errorf("s%d: Reduce %.1f allocs/run, want 0", shards, allocs)
		}
		plan.Close()
	}
}

// TestShardedPlanPanicRecovery: an injected combine panic inside a
// shard's scan surfaces as the typed engine-panic error attributed to
// the sharded engine, the barrier drain keeps the team aligned, and
// the same plan succeeds once the injector is disarmed.
func TestShardedPlanPanicRecovery(t *testing.T) {
	const n, m = 2000, 16
	rng := rand.New(rand.NewSource(101))
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
	be, err := Open[int64]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		phase string
		span  int // hook index range: elements for the scan, labels for the exchange
	}{
		{core.PhaseSortedScan, n},
		{core.PhaseShardedExchange, m},
	} {
		phase := tc.phase
		inj := fault.Seeded(13, tc.span, phase)
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Shards: 4, FaultHook: inj})
		if err != nil {
			t.Fatal(err)
		}
		var pe *core.EnginePanicError
		if _, err := plan.Run(values); !errors.As(err, &pe) {
			t.Fatalf("%s: want EnginePanicError, got %v", phase, err)
		}
		if pe.Engine != "plan/sharded" {
			t.Fatalf("%s: Engine = %q", phase, pe.Engine)
		}
		if inj.Combines.Load() == 0 {
			t.Fatalf("%s: fault hook never fired", phase)
		}

		// Disarm the injector: the same plan (same team) must now succeed.
		inj.PanicEvent = fault.EventNone
		res, err := plan.Run(values)
		if err != nil {
			t.Fatalf("%s: run after recovered panic: %v", phase, err)
		}
		if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("%s: post-recovery run differs from serial", phase)
		}
		plan.Close()
	}
}

// TestShardedLabelOwnership pins the finish step's label ownership:
// shard w writes the reductions of labels par.Range(m, S, w), so every
// label has exactly one owning shard, and when m < S the shards beyond
// the labels own nothing. A ReduceBatch into sentinel-filled
// destinations then checks that the plan writes every label, empty
// ones included, as its serial reduction.
func TestShardedLabelOwnership(t *testing.T) {
	const n, k = 64, 2
	const sentinel = int64(-987654321)
	rng := rand.New(rand.NewSource(105))
	be, err := Open[int64]("sharded")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 2, 3, 7, 8} {
		for _, m := range []int{1, 3, 8, 1000} {
			owners := make([]int, m)
			idle := 0
			for w := 0; w < s; w++ {
				lo, hi := par.Range(m, s, w)
				if lo == hi {
					idle++
				}
				for l := lo; l < hi; l++ {
					owners[l]++
				}
			}
			for l, c := range owners {
				if c != 1 {
					t.Fatalf("s%d m%d: label %d has %d owners", s, m, l, c)
				}
			}
			if want := max(s-m, 0); idle != want {
				t.Fatalf("s%d m%d: %d shards own nothing, want %d", s, m, idle, want)
			}

			labels := make([]int, n)
			for i := range labels {
				labels[i] = rng.Intn(m)
			}
			srcs := make([][]int64, k)
			dsts := make([][]int64, k)
			for v := range srcs {
				srcs[v] = make([]int64, n)
				for i := range srcs[v] {
					srcs[v][i] = int64(rng.Intn(200) - 100)
				}
				dsts[v] = make([]int64, m)
				for l := range dsts[v] {
					dsts[v][l] = sentinel
				}
			}
			plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Shards: s})
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.ReduceBatch(dsts, srcs); err != nil {
				t.Fatalf("s%d m%d: %v", s, m, err)
			}
			plan.Close()
			for v := range srcs {
				want, err := core.Serial(core.AddInt64, srcs[v], labels, m)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInt64(dsts[v], want.Reductions) {
					t.Fatalf("s%d m%d: vector %d reductions differ from serial", s, m, v)
				}
			}
		}
	}
}

// TestShardedAutoPlan: auto never builds the sharded engine — an auto
// plan resolves to serial or chunked, by the rule under an explicit
// AutoCal and by the trial without one — while naming "sharded" builds
// it on the same labels, and every plan matches serial.
func TestShardedAutoPlan(t *testing.T) {
	const n, m = 1 << 13, 64
	rng := rand.New(rand.NewSource(103))
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
	for _, c := range []struct {
		name    string
		cfg     core.Config
		sharded bool
	}{
		{"auto", core.Config{Workers: 4, AutoCal: &core.AutoCalibration{SerialMax: 64}}, false},
		{"auto", core.Config{Workers: 4}, false},
		{"sharded", core.Config{Workers: 4}, true},
	} {
		be, err := Open[int64](c.name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := plan.ShardStats(); ok != c.sharded {
			t.Fatalf("%s plan (AutoCal %v): sharded engine built = %v, want %v", c.name, c.cfg.AutoCal, ok, c.sharded)
		}
		res, err := plan.Run(values)
		plan.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("%s plan differs from serial", c.name)
		}
	}
}

// FuzzShardedParity cross-checks the sharded backend — one-shot and
// planned, shard counts 1–8, int64 and float64 — against the serial
// reference on fuzz-chosen shapes.
func FuzzShardedParity(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(16), uint8(4))
	f.Add(int64(3), uint16(1), uint8(1), uint8(2))
	f.Add(int64(5), uint16(777), uint8(3), uint8(7))
	f.Add(int64(7), uint16(1600), uint8(40), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mRaw, sRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 2048
		m := int(mRaw)%64 + 1
		shards := int(sRaw)%8 + 1
		values := make([]int64, n)
		fvalues := make([]float64, n)
		labels := make([]int, n)
		for i := range values {
			values[i] = int64(rng.Intn(64)) - 8
			fvalues[i] = float64(values[i])
			labels[i] = rng.Intn(m)
		}
		cfg := core.Config{Shards: shards}
		want, err := core.Serial(core.AddInt64, values, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compute("sharded", core.AddInt64, values, labels, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("one-shot sharded differs: n=%d m=%d s=%d", n, m, shards)
		}
		fwant, err := core.Serial(core.AddFloat64, fvalues, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := Compute("sharded", core.AddFloat64, fvalues, labels, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fwant.Multi {
			if fres.Multi[i] != fwant.Multi[i] {
				t.Fatalf("float64 sharded differs at %d: n=%d m=%d s=%d", i, n, m, shards)
			}
		}
		be, err := Open[int64]("sharded")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, cfg)
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
				t.Fatalf("planned sharded differs: n=%d m=%d s=%d round=%d", n, m, shards, round)
			}
			red, err := plan.Reduce(values)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt64(red, want.Reductions) {
				t.Fatalf("planned sharded reduce differs: n=%d m=%d s=%d", n, m, shards)
			}
		}
	})
}
