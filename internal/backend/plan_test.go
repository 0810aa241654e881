package backend

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// TestPlanReuseMatchesSerial is the tentpole parity property: one Plan
// per backend, evaluated against many value vectors, must match the
// one-shot serial reference on every run.
func TestPlanReuseMatchesSerial(t *testing.T) {
	const n, m, rounds = 4000, 64, 8
	rng := rand.New(rand.NewSource(11))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	for _, name := range Names() {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, backendCfg(name))
		if err != nil {
			t.Fatalf("%s: Plan: %v", name, err)
		}
		if plan.N() != n || plan.M() != m {
			t.Fatalf("%s: N=%d M=%d", name, plan.N(), plan.M())
		}
		if c := plan.Classes(); c < 1 || c > m {
			t.Fatalf("%s: Classes=%d", name, c)
		}
		values := make([]int64, n)
		for r := 0; r < rounds; r++ {
			for i := range values {
				values[i] = int64(rng.Intn(100))
			}
			want, err := core.Serial(core.AddInt64, values, labels, m)
			if err != nil {
				t.Fatal(err)
			}
			res, err := plan.Run(values)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, r, err)
			}
			if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
				t.Fatalf("%s round %d: Run differs from serial", name, r)
			}
			red, err := plan.Reduce(values)
			if err != nil {
				t.Fatalf("%s round %d reduce: %v", name, r, err)
			}
			if !equalInt64(red, want.Reductions) {
				t.Fatalf("%s round %d: Reduce differs from serial", name, r)
			}
		}
		plan.Close()
	}
}

// FuzzPlanParity cross-checks every backend's Plan against the serial
// reference on fuzz-chosen shapes — including runs after a first run,
// since plan storage is reused in place.
func FuzzPlanParity(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(8))
	f.Add(int64(7), uint16(1), uint8(1))
	f.Add(int64(9), uint16(300), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 1024
		m := int(mRaw)%32 + 1
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(m)
		}
		type planCase struct {
			name string
			cfg  core.Config
		}
		var cases []planCase
		for _, name := range Names() {
			cases = append(cases, planCase{name, backendCfg(name)})
		}
		// An auto plan with a nil AutoCal and two workers chooses by
		// the build-time trial whenever m ≤ n.
		cases = append(cases, planCase{"auto", core.Config{Workers: 2}})
		for _, c := range cases {
			name := c.name
			be, err := Open[int64](name)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := be.Plan(core.AddInt64, labels, m, c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			values := make([]int64, n)
			for round := 0; round < 2; round++ {
				for i := range values {
					values[i] = int64(rng.Intn(64)) - 8
				}
				want, err := core.Serial(core.AddInt64, values, labels, m)
				if err != nil {
					t.Fatal(err)
				}
				res, err := plan.Run(values)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
					t.Fatalf("%s: n=%d m=%d round %d differs from serial", name, n, m, round)
				}
			}
			plan.Close()
		}
	})
}

// TestPlanRejectsWrongLength: a plan is bound to its label vector;
// value slices of any other length are a typed input error.
func TestPlanRejectsWrongLength(t *testing.T) {
	labels := []int{0, 1, 0, 2}
	for _, name := range Names() {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, 3, backendCfg(name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Run([]int64{1, 2, 3}); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s: short values accepted: %v", name, err)
		}
		if _, err := plan.Reduce(make([]int64, 5)); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s: long values accepted: %v", name, err)
		}
		if _, err := plan.Run([]int64{1, 2, 3, 4}); err != nil {
			t.Errorf("%s: exact length rejected: %v", name, err)
		}
		plan.Close()
		if _, err := plan.Run([]int64{1, 2, 3, 4}); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s: closed plan accepted a run: %v", name, err)
		}
	}
}

// TestPlanRejectsBadLabels: label validation happens at plan time, not
// per run.
func TestPlanRejectsBadLabels(t *testing.T) {
	for _, name := range Names() {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.Plan(core.AddInt64, []int{0, 7}, 2, core.Config{}); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s: out-of-range label accepted at plan time: %v", name, err)
		}
		if _, err := be.Plan(core.AddInt64, nil, -1, core.Config{}); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("%s: m=-1 accepted at plan time: %v", name, err)
		}
	}
}

// TestPlanLabelsCopied: mutating the caller's label slice after Plan
// must not change what the plan computes.
func TestPlanLabelsCopied(t *testing.T) {
	labels := []int{0, 1, 0, 1}
	values := []int64{1, 2, 3, 4}
	plan, err := Open[int64]("serial")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Plan(core.AddInt64, labels, 2, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	labels[0], labels[2] = 1, 1 // would shift everything to class 1
	red, err := p.Reduce(values)
	if err != nil {
		t.Fatal(err)
	}
	if red[0] != 4 || red[1] != 6 {
		t.Fatalf("plan observed caller's label mutation: %v", red)
	}
}

// TestPlanEmpty: an empty plan (n == 0) runs on every backend — the
// simulated machines degrade to the serial pass.
func TestPlanEmpty(t *testing.T) {
	for _, name := range Names() {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, nil, 4, backendCfg(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := plan.Run([]int64{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Multi) != 0 || len(res.Reductions) != 4 {
			t.Fatalf("%s: Multi=%v Reductions=%v", name, res.Multi, res.Reductions)
		}
		plan.Close()
	}
}

// planAllocInput mirrors core's allocation-test shape: large enough
// that the chunked plan uses several real chunks.
func planAllocInput() ([]int64, []int, int) {
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

// TestPlanZeroAllocs asserts the tentpole perf property: a warm Plan
// on every portable backend performs zero steady-state heap
// allocations per Run/Reduce on the fast-path operator. "auto" is
// pinned to its chunked resolution so the test exercises the planned
// parallel path regardless of the host's calibration.
func TestPlanZeroAllocs(t *testing.T) {
	values, labels, m := planAllocInput()
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"serial", core.Config{}},
		{"spinetree", core.Config{}},
		{"chunked", core.Config{Workers: 4}},
		{"parallel", core.Config{Workers: 4}},
		{"auto", core.Config{Workers: 4, AutoCal: &core.AutoCalibration{SerialMax: 0}}},
	}
	for _, tc := range cases {
		be, err := Open[int64](tc.name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, tc.cfg)
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
		runCall := func() {
			if _, err := plan.RunCall(Call{}, values); err != nil {
				t.Fatal(err)
			}
		}
		reduceCall := func() {
			if _, err := plan.ReduceCall(Call{}, values); err != nil {
				t.Fatal(err)
			}
		}
		run()
		reduce() // warm plan-owned buffers and the worker team
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Errorf("%s: Run %.1f allocs/run, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduce); allocs != 0 {
			t.Errorf("%s: Reduce %.1f allocs/run, want 0", tc.name, allocs)
		}
		// The per-call override variants are //mp:hotpath too: the
		// config save/restore must stay on the stack.
		if allocs := testing.AllocsPerRun(5, runCall); allocs != 0 {
			t.Errorf("%s: RunCall %.1f allocs/run, want 0", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduceCall); allocs != 0 {
			t.Errorf("%s: ReduceCall %.1f allocs/run, want 0", tc.name, allocs)
		}
		plan.Close()
	}
}

// TestPlanAutoFallback: an auto plan whose resolved parallel execution
// fails mid-run (injected combine panic) must degrade to the serial
// pass and still return correct results — the planned equivalent of
// the one-shot Fallback semantics.
func TestPlanAutoFallback(t *testing.T) {
	const n, m = 3000, 32
	rng := rand.New(rand.NewSource(17))
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
	inj := fault.Seeded(5, n, core.PhaseChunkLocal)
	cfg := core.Config{
		Workers:   4,
		AutoCal:   &core.AutoCalibration{SerialMax: 0}, // force the chunked resolution
		FaultHook: inj,
	}
	be, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	for round := 0; round < 3; round++ {
		res, err := plan.Run(values)
		if err != nil {
			t.Fatalf("round %d: fallback did not absorb the injected panic: %v", round, err)
		}
		if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("round %d: fallback result differs from serial", round)
		}
	}
	if inj.Combines.Load() == 0 {
		t.Fatal("fault hook never fired — the test exercised nothing")
	}

	// The same failure on an explicitly named backend must surface as
	// the typed panic error instead of degrading.
	explicit, err := Open[int64]("chunked")
	if err != nil {
		t.Fatal(err)
	}
	eplan, err := explicit.Plan(core.AddInt64, labels, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eplan.Close()
	var pe *core.EnginePanicError
	if _, err := eplan.Run(values); !errors.As(err, &pe) {
		t.Fatalf("chunked plan: want EnginePanicError, got %v", err)
	}
}

// TestPlanChunkMergePanic: a panic in the chunked merge pass, which
// runs on the calling goroutine, is shielded like a panic in a worker
// pass. An explicit chunked plan returns the typed error naming the
// merge phase; an auto plan resolved to chunked degrades to the serial
// answer. Both plans serve the next call.
func TestPlanChunkMergePanic(t *testing.T) {
	const n, m = 3000, 32
	rng := rand.New(rand.NewSource(19))
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
	cfg := core.Config{Workers: 4, AutoCal: &core.AutoCalibration{SerialMax: 0}}
	for _, name := range []string{"chunked", "auto"} {
		t.Run(name, func(t *testing.T) {
			be, err := Open[int64](name)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := be.Plan(core.AddInt64, labels, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer plan.Close()
			if execName(plan) != "chunked" {
				t.Fatalf("plan resolved to %s, want chunked", execName(plan))
			}
			inj := fault.New()
			inj.PanicEvent = fault.EventCombine
			inj.PanicPhase = core.PhaseChunkMerge
			call := Call{Hook: inj}
			res, runErr := plan.RunCall(call, values)
			if name == "auto" && (runErr != nil || !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions)) {
				t.Fatalf("Run did not degrade to the serial answer: %v", runErr)
			}
			red, reduceErr := plan.ReduceCall(call, values)
			if name == "auto" && (reduceErr != nil || !equalInt64(red, want.Reductions)) {
				t.Fatalf("Reduce did not degrade to the serial answer: %v", reduceErr)
			}
			if name == "chunked" {
				for _, err := range []error{runErr, reduceErr} {
					var pe *core.EnginePanicError
					if !errors.As(err, &pe) {
						t.Fatalf("want *EnginePanicError, got %v", err)
					}
					if pe.Engine != "plan/chunked" || pe.Phase != core.PhaseChunkMerge {
						t.Errorf("attribution %s/%s, want plan/chunked/%s", pe.Engine, pe.Phase, core.PhaseChunkMerge)
					}
				}
			}
			if inj.Combines.Load() == 0 {
				t.Fatal("fault hook never fired")
			}
			res, err = plan.Run(values)
			if err != nil || !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
				t.Fatalf("next Run: %v, or result differs from serial", err)
			}
			red, err = plan.Reduce(values)
			if err != nil || !equalInt64(red, want.Reductions) {
				t.Fatalf("next Reduce: %v, or result differs from serial", err)
			}
		})
	}
}

// TestPlanCancellation: a cancelled context is terminal — reported as
// context.Canceled and never masked by the auto fallback.
func TestPlanCancellation(t *testing.T) {
	values, labels, m := planAllocInput()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"serial", core.Config{Ctx: ctx}},
		{"chunked", core.Config{Ctx: ctx, Workers: 4}},
		{"auto", core.Config{Ctx: ctx, Workers: 4, AutoCal: &core.AutoCalibration{SerialMax: 0}}},
	} {
		be, err := Open[int64](tc.name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Run(values); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", tc.name, err)
		}
		plan.Close()
	}
}

// TestPlanGenericOp: plans are not limited to fast-path operators —
// a Combine-only operator runs through the generic kernels.
func TestPlanGenericOp(t *testing.T) {
	genericAdd := core.Op[int64]{
		Name:       "+int64 (generic)",
		Identity:   0,
		Combine:    func(a, b int64) int64 { return a + b },
		IsIdentity: func(x int64) bool { return x == 0 },
	}
	const n, m = 2000, 16
	rng := rand.New(rand.NewSource(23))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	want, err := core.Serial(genericAdd, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serial", "spinetree", "chunked", "parallel", "auto"} {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(genericAdd, labels, m, backendCfg(name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Run(values)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("%s: generic-op plan differs from serial", name)
		}
		plan.Close()
	}
}
