package backend

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

func trialInput(n, m int) ([]int64, []int) {
	rng := rand.New(rand.NewSource(211))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100)) - 50
		labels[i] = rng.Intn(m)
	}
	return values, labels
}

// TestAutoTrial pins the build-time trial: an auto plan with a nil
// AutoCal, two workers and m ≤ n times serial and chunked, records
// both medians and its pick, runs the picked engine under the auto
// name and matches serial. Any other auto plan applies the rule and
// records no trial.
func TestAutoTrial(t *testing.T) {
	const n, m = 1 << 12, 64
	values, labels := trialInput(n, m)
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	be, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	tr, ok := plan.Trial()
	if !ok {
		t.Fatal("auto plan with a nil AutoCal and two workers ran no trial")
	}
	if len(tr.Candidates) != 2 || tr.Candidates[0].Engine != "serial" || tr.Candidates[1].Engine != "chunked" {
		t.Fatalf("trial candidates %+v, want serial and chunked", tr.Candidates)
	}
	for _, c := range tr.Candidates {
		if c.Err != nil || c.Median <= 0 {
			t.Fatalf("candidate %s: median %v, err %v", c.Engine, c.Median, c.Err)
		}
	}
	wantExec := map[string]planKind{"serial": planSerial, "chunked": planChunked}
	if exec, ok := wantExec[tr.Pick]; !ok || plan.exec != exec {
		t.Fatalf("trial picked %q, plan runs exec %d", tr.Pick, plan.exec)
	}
	if plan.Backend() != "auto" || !plan.fallback || tr.Elapsed <= 0 {
		t.Fatalf("trial plan: backend %q, fallback %v, elapsed %v", plan.Backend(), plan.fallback, tr.Elapsed)
	}
	res, err := plan.Run(values)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
		t.Fatal("trial plan differs from serial")
	}

	for _, c := range []struct {
		name string
		m    int
		cfg  core.Config
	}{
		{"explicit AutoCal", m, core.Config{Workers: 4, AutoCal: &core.AutoCalibration{SerialMax: 0}}},
		{"one worker", m, core.Config{Workers: 1}},
		{"m > n", n + 1, core.Config{Workers: 2}},
	} {
		p, err := be.Plan(core.AddInt64, labels, c.m, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Trial(); ok {
			t.Errorf("%s: plan ran a trial", c.name)
		}
		if got, want := p.exec == planChunked, core.AutoPlanChoice(n, c.m, c.cfg) == "chunked"; got != want {
			t.Errorf("%s: plan exec %d, rule says %s", c.name, p.exec, core.AutoPlanChoice(n, c.m, c.cfg))
		}
		p.Close()
	}

	// A named engine pins the choice: no trial.
	chunked, err := Open[int64]("chunked")
	if err != nil {
		t.Fatal(err)
	}
	p, err := chunked.Plan(core.AddInt64, labels, m, core.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Trial(); ok {
		t.Error("chunked plan ran a trial")
	}
	p.Close()
}

// TestAutoTrialBounded: the trial stops where its cost would run away.
// A context that has already ended gets the rule with no run at all; a
// context that ends during serial's warm-up stops the trial after that
// one run; and an operator slow enough that serial's warm-up alone
// takes a quarter of trialBudget skips the rest of the trial. Each
// plan records no trial and runs the rule's engine (serial at two
// workers).
func TestAutoTrialBounded(t *testing.T) {
	const n, m = 1 << 10, 16
	values, labels := trialInput(n, m)
	var combines atomic.Int64
	var cancelAt atomic.Pointer[context.CancelFunc]
	var spin atomic.Int64 // busy-wait per combine, ns
	op := core.Op[int64]{
		Name:     "+int64 (counted)",
		Identity: 0,
		Combine: func(a, b int64) int64 {
			combines.Add(1)
			if c := cancelAt.Swap(nil); c != nil {
				(*c)()
			}
			for t0 := time.Now(); time.Since(t0) < time.Duration(spin.Load()); {
			}
			return a + b
		},
		IsIdentity: func(x int64) bool { return x == 0 },
	}
	serial, err := Open[int64]("serial")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := serial.Plan(op, labels, m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Run(values); err != nil {
		t.Fatal(err)
	}
	sp.Close()
	perRun := combines.Swap(0)

	be, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		setup func() context.Context
		runs  int64 // serial runs the build may make
	}{
		{"expired context", func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx
		}, 0},
		{"context ends in the warm-up", func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			cancelAt.Store(&cancel)
			return ctx
		}, 1},
		{"warm-up over budget", func() context.Context {
			spin.Store(int64(trialBudget) / n)
			return nil
		}, 1},
	} {
		combines.Store(0)
		ctx := c.setup()
		start := time.Now()
		p, err := be.Plan(op, labels, m, core.Config{Workers: 2, Ctx: ctx})
		spin.Store(0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, ok := p.Trial(); ok {
			t.Errorf("%s: plan recorded a trial", c.name)
		}
		if got := combines.Load(); got != c.runs*perRun {
			t.Errorf("%s: build made %d combines, want %d (%d serial runs)", c.name, got, c.runs*perRun, c.runs)
		}
		if p.exec != planSerial || p.Backend() != "auto" || p.cfg.Ctx != ctx {
			t.Errorf("%s: plan exec %d, backend %q; want the rule's serial under auto with the caller's context", c.name, p.exec, p.Backend())
		}
		t.Logf("%s: build took %v", c.name, time.Since(start))
		p.Close()
	}
}

// TestAutoTrialNoHook: the trial runs its candidates without the
// plan's fault hook, so a counting hook sees no call during the build;
// the built plan carries the hook for its own runs.
func TestAutoTrialNoHook(t *testing.T) {
	const n, m = 1 << 12, 64
	_, labels := trialInput(n, m)
	inj := fault.New()
	be, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 2, FaultHook: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	if _, ok := plan.Trial(); !ok {
		t.Fatal("no trial ran")
	}
	if c, b := inj.Combines.Load(), inj.Barriers.Load(); c != 0 || b != 0 {
		t.Fatalf("fault hook saw %d combines and %d barriers during the build, want 0", c, b)
	}
	if plan.cfg.FaultHook != inj {
		t.Fatal("trial plan lost the caller's fault hook")
	}
}

// TestAutoTrialPanickingOp: an operator that panics fails both
// candidates inside the trial; Plan returns a serial plan instead of
// panicking, and its runs report the typed engine panic.
func TestAutoTrialPanickingOp(t *testing.T) {
	const n, m = 1 << 10, 16
	values, labels := trialInput(n, m)
	boom := core.Op[int64]{
		Name:       "+int64 (always panics)",
		Identity:   0,
		Combine:    func(a, b int64) int64 { panic("injected") },
		IsIdentity: func(x int64) bool { return x == 0 },
	}
	be, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(boom, labels, m, core.Config{Workers: 2})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	defer plan.Close()
	tr, ok := plan.Trial()
	if !ok || tr.Pick != "serial" {
		t.Fatalf("trial %+v (ran %v), want a serial pick", tr, ok)
	}
	for _, c := range tr.Candidates {
		var pe *core.EnginePanicError
		if !errors.As(c.Err, &pe) {
			t.Fatalf("candidate %s: err %v, want EnginePanicError", c.Engine, c.Err)
		}
	}
	var pe *core.EnginePanicError
	if _, err := plan.Run(values); !errors.As(err, &pe) {
		t.Fatalf("Run: %v, want EnginePanicError", err)
	}
}
