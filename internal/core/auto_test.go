package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// TestAutoChoice pins the one-shot rule: chunked only with at least
// four workers, n above SerialMax (2^20 by default, or an explicit
// AutoCal's) and m ≤ n; serial everywhere else. The rule reads no
// labels, so no shape ever resolves to sorted, sharded or parallel.
func TestAutoChoice(t *testing.T) {
	pinned := &AutoCalibration{SerialMax: 1000}
	cases := []struct {
		name string
		n, m int
		cfg  Config
		want string
	}{
		{"default-large", 1<<20 + 1, 64, Config{Workers: 4}, "chunked"},
		{"default-at-threshold", 1 << 20, 64, Config{Workers: 4}, "serial"},
		{"default-three-workers", 1 << 22, 64, Config{Workers: 3}, "serial"},
		{"default-one-worker", 1 << 22, 64, Config{Workers: 1}, "serial"},
		{"default-m>n", 1<<20 + 1, 1<<20 + 2, Config{Workers: 8}, "serial"},
		{"pinned-chunked", 4000, 64, Config{Workers: 4, AutoCal: pinned}, "chunked"},
		{"pinned-small-n", 1000, 64, Config{Workers: 4, AutoCal: pinned}, "serial"},
		{"pinned-sparse-labels", 4000, 5000, Config{Workers: 4, AutoCal: pinned}, "serial"},
		{"pinned-two-workers", 4000, 64, Config{Workers: 2, AutoCal: pinned}, "serial"},
		{"pinned-zero", 1, 1, Config{Workers: 4, AutoCal: &AutoCalibration{}}, "chunked"},
	}
	for _, tc := range cases {
		if got := AutoChoice(tc.n, tc.m, tc.cfg); got != tc.want {
			t.Errorf("%s: AutoChoice(%d, %d) = %q, want %q", tc.name, tc.n, tc.m, got, tc.want)
		}
		if got := AutoPlanChoice(tc.n, tc.m, tc.cfg); got != tc.want {
			t.Errorf("%s: AutoPlanChoice(%d, %d) = %q, want the rule's %q", tc.name, tc.n, tc.m, got, tc.want)
		}
	}
	if cal := DefaultCalibration(); cal.SerialMax != 1<<20 {
		t.Errorf("DefaultCalibration().SerialMax = %d, want the rule's 2^20", cal.SerialMax)
	}
}

// TestMeasureMemProbeSane runs the real stream measurement once and
// checks it returns a plausible bandwidth, and that the process-wide
// DefaultCalibration carries one.
func TestMeasureMemProbeSane(t *testing.T) {
	if testing.Short() {
		t.Skip("real measurement; skipped in -short")
	}
	if p := MeasureMemProbe(); p.StreamBps < 1e8 {
		t.Fatalf("stream bandwidth %.3g B/s, want at least 0.1 GB/s", p.StreamBps)
	}
	if p := DefaultCalibration().Probe; p == nil || p.StreamBps <= 0 {
		t.Fatalf("DefaultCalibration().Probe = %+v, want a measured stream bandwidth", p)
	}
}

// TestAutoMatchesSerial forces each branch of the Auto engine via
// AutoCal overrides and checks agreement with the Serial reference for
// both Auto and AutoReduce, unpooled and pooled.
func TestAutoMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	values, labels := randInput(rng, 6000, 101)
	want, err := Serial(AddInt64, values, labels, 101)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"serial-branch", Config{Workers: 1}},
		{"chunked-branch", Config{Workers: 4, AutoCal: &AutoCalibration{SerialMax: 100}}},
		{"default-cal", Config{Workers: 4}},
	}
	for _, tc := range cfgs {
		got, err := Auto(AddInt64, values, labels, 101, tc.cfg)
		if err != nil {
			t.Fatalf("%s: Auto: %v", tc.name, err)
		}
		sameResult(t, tc.name+"/auto", got, want)
		red, err := AutoReduce(AddInt64, values, labels, 101, tc.cfg)
		if err != nil {
			t.Fatalf("%s: AutoReduce: %v", tc.name, err)
		}
		for k := range want.Reductions {
			if red[k] != want.Reductions[k] {
				t.Fatalf("%s: red[%d]=%d, want %d", tc.name, k, red[k], want.Reductions[k])
			}
		}
		got, err = b.Auto(AddInt64, values, labels, 101, tc.cfg)
		if err != nil {
			t.Fatalf("%s: pooled Auto: %v", tc.name, err)
		}
		sameResult(t, tc.name+"/pooled-auto", got, want)
		red, err = b.AutoReduce(AddInt64, values, labels, 101, tc.cfg)
		if err != nil {
			t.Fatalf("%s: pooled AutoReduce: %v", tc.name, err)
		}
		for k := range want.Reductions {
			if red[k] != want.Reductions[k] {
				t.Fatalf("%s: pooled red[%d]=%d, want %d", tc.name, k, red[k], want.Reductions[k])
			}
		}
	}
}

// TestAutoErrorPassthrough checks that invalid input and a cancelled
// context come back as-is from every Auto variant (no silent serial
// retry), matching the Fallback contract.
func TestAutoErrorPassthrough(t *testing.T) {
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	cal := &AutoCalibration{SerialMax: 1}
	cfg := Config{Workers: 4, AutoCal: cal}

	// Out-of-range label: ErrBadInput from all variants.
	badLabels := []int{0, 1, 99}
	vals := []int64{1, 2, 3}
	if _, err := Auto(AddInt64, vals, badLabels, 3, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Auto bad input: %v", err)
	}
	if _, err := AutoReduce(AddInt64, vals, badLabels, 3, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("AutoReduce bad input: %v", err)
	}
	if _, err := b.Auto(AddInt64, vals, badLabels, 3, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("pooled Auto bad input: %v", err)
	}
	if _, err := b.AutoReduce(AddInt64, vals, badLabels, 3, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("pooled AutoReduce bad input: %v", err)
	}

	// Pre-cancelled context: context.Canceled on every branch,
	// including the serial one (serialCtx honors cfg.Ctx).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(31))
	values, labels := randInput(rng, 5000, 17)
	for _, branch := range []Config{
		{Workers: 1, Ctx: ctx, AutoCal: cal},
		{Workers: 4, Ctx: ctx, AutoCal: cal},
	} {
		if _, err := Auto(AddInt64, values, labels, 17, branch); !errors.Is(err, context.Canceled) {
			t.Fatalf("Auto (%s): %v", AutoChoice(len(values), 17, branch), err)
		}
		if _, err := AutoReduce(AddInt64, values, labels, 17, branch); !errors.Is(err, context.Canceled) {
			t.Fatalf("AutoReduce (%s): %v", AutoChoice(len(values), 17, branch), err)
		}
		if _, err := b.Auto(AddInt64, values, labels, 17, branch); !errors.Is(err, context.Canceled) {
			t.Fatalf("pooled Auto (%s): %v", AutoChoice(len(values), 17, branch), err)
		}
		if _, err := b.AutoReduce(AddInt64, values, labels, 17, branch); !errors.Is(err, context.Canceled) {
			t.Fatalf("pooled AutoReduce (%s): %v", AutoChoice(len(values), 17, branch), err)
		}
	}
}

// TestAutoFallsBackOnPanic drives Auto into its parallel branch with an
// operator that panics only on the first run: the Fallback machinery
// must degrade to the serial reference and still return the right
// answer. Works because the serial retry sees a fresh pass where the
// one-shot trigger has already fired.
func TestAutoFallsBackOnPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	values, labels := randInput(rng, 4000, 31)
	want, err := Serial(AddInt64, values, labels, 31)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	oneShot := Op[int64]{
		Name:     "+int64 (one-shot panic)",
		Identity: 0,
		Combine: func(a, x int64) int64 {
			if !fired {
				fired = true
				panic("injected")
			}
			return a + x
		},
		IsIdentity: func(x int64) bool { return x == 0 },
	}
	cfg := Config{Workers: 1, AutoCal: &AutoCalibration{SerialMax: 100}}
	got, err := Auto(oneShot, values, labels, 31, cfg)
	if err != nil {
		t.Fatalf("Auto with fallback: %v", err)
	}
	if !fired {
		t.Fatal("panic never fired; test exercised nothing")
	}
	sameResult(t, "fallback", got, want)

	// Pooled Auto degrades the same way on a persistent parallel
	// failure (panicking op only in the chunked branch's workers would
	// be nondeterministic; instead verify the pooled path returns the
	// typed error through b.Serial's retry of a clean op).
	ws := NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)
	fired = false
	got, err = b.Auto(oneShot, values, labels, 31, cfg)
	if err != nil {
		t.Fatalf("pooled Auto with fallback: %v", err)
	}
	sameResult(t, "pooled-fallback", got, want)
}
