package backend

import (
	"context"
	"runtime"
	"testing"
	"time"

	"multiprefix/internal/core"
	"multiprefix/internal/fault"
)

// TestPromote pins when a live auto plan runs its deferred trial: a
// RulePlan plan starts on the rule's engine with no record, and its
// first Promote call runs the trial to a pick and records it. Every
// later call, and every plan the trial does not cover, runs nothing
// and records nothing.
func TestPromote(t *testing.T) {
	const n, m = 1 << 12, 64
	values, labels := trialInput(n, m)
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 2}
	p, err := RulePlan(core.AddInt64, labels, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, ok := p.Trial(); ok || p.exec != planSerial || p.Backend() != "auto" || !p.fallback {
		t.Fatalf("RulePlan: trial recorded %v, exec %d, backend %q; want no record on the rule's serial under auto", ok, p.exec, p.Backend())
	}
	ok, switched := p.Promote(context.Background())
	if !ok {
		t.Fatal("first Promote ran no trial")
	}
	rec, recorded := p.Trial()
	if !recorded || rec.Elapsed <= 0 || len(rec.Candidates) != 2 {
		t.Fatalf("Trial() = %+v, %v after Promote ran one", rec, recorded)
	}
	if wantExec := map[string]planKind{"serial": planSerial, "chunked": planChunked}[rec.Pick]; p.exec != wantExec || switched != (rec.Pick == "chunked") {
		t.Fatalf("pick %q, switched %v, plan exec %d", rec.Pick, switched, p.exec)
	}
	t.Logf("promotion trial: %v", rec)
	res, err := p.Run(values)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
		t.Fatal("promoted plan differs from serial")
	}
	if ok, _ := p.Promote(context.Background()); ok {
		t.Fatal("second Promote ran a trial")
	}

	ended, cancel := context.WithCancel(context.Background())
	cancel()
	auto, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	library, err := auto.Plan(core.AddInt64, labels, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	libRec, _ := library.Trial()
	for _, c := range []struct {
		name  string
		build func() (*Plan[int64], error)
		ctx   context.Context
	}{
		{"library auto plan", func() (*Plan[int64], error) { return library, nil }, context.Background()},
		{"ended context", func() (*Plan[int64], error) { return RulePlan(core.AddInt64, labels, m, cfg) }, ended},
		{"one worker", func() (*Plan[int64], error) { return RulePlan(core.AddInt64, labels, m, core.Config{Workers: 1}) }, context.Background()},
		{"m > n", func() (*Plan[int64], error) { return RulePlan(core.AddInt64, labels, n+1, cfg) }, context.Background()},
	} {
		q, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		before, _ := q.Trial()
		if ok, _ := q.Promote(c.ctx); ok {
			t.Errorf("%s: Promote ran a trial", c.name)
		}
		if after, _ := q.Trial(); after.Pick != before.Pick || after.Elapsed != before.Elapsed {
			t.Errorf("%s: record moved from %+v to %+v", c.name, before, after)
		}
		if ok, _ := q.Promote(context.Background()); ok && c.name == "ended context" {
			t.Errorf("%s: a trial cut short ran again", c.name)
		}
		q.Close()
	}
	if libRec.Pick == "" {
		t.Error("library auto plan lost its build-time trial")
	}

	// A float plan never switches engine: its low bits would change.
	fp, err := RulePlan(core.AddFloat64, labels, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	if ok, _ := fp.Promote(context.Background()); ok {
		t.Error("float64 plan ran a promotion trial")
	}
	if _, ok := fp.Trial(); ok {
		t.Error("float64 plan recorded a trial")
	}
}

// switchEngine drives Promote's switch without its timing: it builds
// the candidate of kind k over p's own labels, as Promote does, swaps
// it in under p's lock and closes it.
func switchEngine(t *testing.T, p *Plan[int64], k kind) {
	t.Helper()
	p.mu.Lock()
	cfg := quietConfig(p.cfg)
	p.mu.Unlock()
	c, err := newPlan(k, "candidate", p.op, p.labels, p.m, p.classes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.swapEngine(c)
	p.mu.Unlock()
	c.Close()
}

// TestPromoteSwitch switches a live, bound int64 auto plan from serial
// to chunked and back. After each switch Run, RunBatch and ReduceBatch
// match the serial oracle bit for bit, the resident state keeps its
// version, snapshot and Fenwick answers, and warm runs allocate
// nothing.
func TestPromoteSwitch(t *testing.T) {
	const n, m = 1 << 12, 64
	values, labels := trialInput(n, m)
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	resident := make([]int64, n)
	for i := range resident {
		resident[i] = int64(i%17) - 8
	}
	p, err := RulePlan(core.AddInt64, labels, m, core.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Bind(resident); err != nil {
		t.Fatal(err)
	}
	if err := p.Update(5, 1000); err != nil {
		t.Fatal(err)
	}
	resident[5] = 1000
	version := p.Version()
	state, err := core.Serial(core.AddInt64, resident, labels, m)
	if err != nil {
		t.Fatal(err)
	}

	dsts := [][]int64{make([]int64, n), make([]int64, n)}
	reds := [][]int64{make([]int64, m), make([]int64, m)}
	srcs := [][]int64{values, values}
	check := func(step string, exec planKind) {
		t.Helper()
		if p.exec != exec {
			t.Fatalf("%s: plan exec %d, want %d", step, p.exec, exec)
		}
		res, err := p.Run(values)
		if err != nil || !equalInt64(res.Multi, want.Multi) || !equalInt64(res.Reductions, want.Reductions) {
			t.Fatalf("%s: Run differs from serial (err %v)", step, err)
		}
		if err := p.RunBatch(dsts, srcs); err != nil {
			t.Fatal(err)
		}
		if err := p.ReduceBatch(reds, srcs); err != nil {
			t.Fatal(err)
		}
		for k := range srcs {
			if !equalInt64(dsts[k], want.Multi) || !equalInt64(reds[k], want.Reductions) {
				t.Fatalf("%s: batch vector %d differs from serial", step, k)
			}
		}
		if v := p.Version(); v != version {
			t.Fatalf("%s: version %d, want %d", step, v, version)
		}
		multi, red := make([]int64, n), make([]int64, m)
		if _, err := p.Snapshot(multi, red); err != nil || !equalInt64(multi, state.Multi) || !equalInt64(red, state.Reductions) {
			t.Fatalf("%s: snapshot differs from the resident state's serial answer (err %v)", step, err)
		}
		for _, i := range []int{0, 5, n / 2, n - 1} {
			if v, err := p.QueryPrefix(i); err != nil || v != state.Multi[i] {
				t.Fatalf("%s: QueryPrefix(%d) = %d, %v; want %d", step, i, v, err, state.Multi[i])
			}
		}
		for _, c := range []int{0, labels[5], m - 1} {
			if v, err := p.ReduceLabel(c); err != nil || v != state.Reductions[c] {
				t.Fatalf("%s: ReduceLabel(%d) = %d, %v; want %d", step, c, v, err, state.Reductions[c])
			}
		}
		for name, f := range map[string]func() error{
			"Run":         func() error { _, err := p.Run(values); return err },
			"RunBatch":    func() error { return p.RunBatch(dsts, srcs) },
			"ReduceBatch": func() error { return p.ReduceBatch(reds, srcs) },
		} {
			if allocs := testing.AllocsPerRun(5, func() {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s: warm %s %.1f allocs/run, want 0", step, name, allocs)
			}
		}
	}
	check("rule", planSerial)
	switchEngine(t, p, kindChunked)
	check("serial→chunked", planChunked)
	switchEngine(t, p, kindSerial)
	check("chunked→serial", planSerial)
	if p.team != nil || p.chunks != nil {
		t.Fatal("plan back on serial still holds a team or a chunk runner")
	}
}

// TestPromoteTeamSurvivesGC: a plan that took a candidate's worker team
// owns it. Once the candidate is collected its cleanup must not close
// the team: the plan still runs chunked — the fault hook sees the
// chunked combines, which the serial fallback would not call it for —
// and does not hang on a closed team.
func TestPromoteTeamSurvivesGC(t *testing.T) {
	const n, m = 1 << 12, 64
	values, labels := trialInput(n, m)
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RulePlan(core.AddInt64, labels, m, core.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A sentinel dropped with the candidate: once its cleanup has run,
	// the collections have queued and run the candidate's too.
	collected := make(chan struct{})
	sentinel := new([64]byte)
	runtime.AddCleanup(sentinel, func(ch chan struct{}) { close(ch) }, collected)
	sentinel = nil
	switchEngine(t, p, kindChunked)
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("the dropped sentinel was not collected")
	}

	inj := fault.New()
	dst := [][]int64{make([]int64, n)}
	done := make(chan error, 1)
	go func() { done <- p.RunBatchCall(Call{Hook: inj}, dst, [][]int64{values}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		// The stuck run holds the plan's lock, so the plan is left open.
		t.Fatal("chunked run did not return: the candidate's cleanup closed the plan's team")
	}
	defer p.Close()
	if !equalInt64(dst[0], want.Multi) {
		t.Fatal("chunked run differs from serial")
	}
	if inj.Combines.Load() == 0 {
		t.Fatal("hook saw no combine: the serial pass, which calls no hook, answered")
	}
}
