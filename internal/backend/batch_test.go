package backend

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"multiprefix/internal/core"
)

// batchInput builds one fixed label vector and k value vectors plus
// preallocated destination storage for both batch forms.
func batchInput(rng *rand.Rand, n, m, k int) (labels []int, srcs, multiDsts, redDsts [][]int64) {
	labels = make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(m)
	}
	srcs = make([][]int64, k)
	multiDsts = make([][]int64, k)
	redDsts = make([][]int64, k)
	for j := 0; j < k; j++ {
		srcs[j] = make([]int64, n)
		for i := range srcs[j] {
			srcs[j][i] = int64(rng.Intn(200) - 100)
		}
		multiDsts[j] = make([]int64, n)
		redDsts[j] = make([]int64, m)
	}
	return labels, srcs, multiDsts, redDsts
}

// TestBatchParity is the batch half of the tentpole: RunBatch and
// ReduceBatch on every registered backend must equal k independent
// serial evaluations — exercising the fused serial, sorted (serial and
// team), chunked-team and vector paths plus the generic loop.
func TestBatchParity(t *testing.T) {
	const n, m, k = 1500, 24, 3
	rng := rand.New(rand.NewSource(91))
	labels, srcs, multiDsts, redDsts := batchInput(rng, n, m, k)
	for _, name := range Names() {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, backendCfg(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for round := 0; round < 2; round++ {
			if err := plan.RunBatch(multiDsts, srcs); err != nil {
				t.Fatalf("%s round %d: RunBatch: %v", name, round, err)
			}
			if err := plan.ReduceBatch(redDsts, srcs); err != nil {
				t.Fatalf("%s round %d: ReduceBatch: %v", name, round, err)
			}
			for j := 0; j < k; j++ {
				want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInt64(multiDsts[j], want.Multi) {
					t.Fatalf("%s round %d: RunBatch[%d] differs from serial", name, round, j)
				}
				if !equalInt64(redDsts[j], want.Reductions) {
					t.Fatalf("%s round %d: ReduceBatch[%d] differs from serial", name, round, j)
				}
			}
		}
		plan.Close()
	}
}

// TestBatchWorkerMatrix stresses the fused team paths: sorted and
// chunked batches across worker counts and the carry-heavy label
// shapes, with results checked against per-vector serial runs.
func TestBatchWorkerMatrix(t *testing.T) {
	const n, k = 1023, 4
	rng := rand.New(rand.NewSource(93))
	for _, shape := range sortedShapes(rng, n) {
		srcs := make([][]int64, k)
		multiDsts := make([][]int64, k)
		redDsts := make([][]int64, k)
		for j := 0; j < k; j++ {
			srcs[j] = make([]int64, n)
			for i := range srcs[j] {
				srcs[j][i] = int64(rng.Intn(100))
			}
			multiDsts[j] = make([]int64, n)
			redDsts[j] = make([]int64, shape.m)
		}
		for _, name := range []string{"sorted", "chunked"} {
			be, err := Open[int64](name)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 4} {
				plan, err := be.Plan(core.AddInt64, shape.labels, shape.m, core.Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := plan.RunBatch(multiDsts, srcs); err != nil {
					t.Fatalf("%s/%s/w%d: RunBatch: %v", name, shape.name, workers, err)
				}
				if err := plan.ReduceBatch(redDsts, srcs); err != nil {
					t.Fatalf("%s/%s/w%d: ReduceBatch: %v", name, shape.name, workers, err)
				}
				for j := 0; j < k; j++ {
					want, err := core.Serial(core.AddInt64, srcs[j], shape.labels, shape.m)
					if err != nil {
						t.Fatal(err)
					}
					if !equalInt64(multiDsts[j], want.Multi) {
						t.Fatalf("%s/%s/w%d: vector %d multi differs", name, shape.name, workers, j)
					}
					if !equalInt64(redDsts[j], want.Reductions) {
						t.Fatalf("%s/%s/w%d: vector %d reductions differ", name, shape.name, workers, j)
					}
				}
				plan.Close()
			}
		}
	}
}

// TestBatchDstOverwrite pins the full-overwrite contract of batch
// destinations, which lets a caller reuse dst slices without clearing
// them: RunBatch, ReduceBatch, RunEach and ReduceEach write every
// element of every dst, so dsts filled with a sentinel get the same
// answers as zeroed ones, and both match per-vector serial. It covers
// every service backend with sum and with max (whose identity is not
// zero) over shapes with absent labels, m > n and n = 1.
func TestBatchDstOverwrite(t *testing.T) {
	const k = 3
	const sentinel = int64(0x5a5a5a5a5a5a5a5a)
	rng := rand.New(rand.NewSource(97))
	randLabels := func(n, m, stride int) []int {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(m/stride) * stride
		}
		return labels
	}
	shapes := []struct {
		name   string
		labels []int
		m      int
	}{
		{"mixed", randLabels(1500, 24, 1), 24},
		{"odd labels absent", randLabels(300, 16, 2), 16},
		{"one run, others absent", make([]int, 1023), 5},
		{"m>n", randLabels(5, 40, 1), 40},
		{"n=1", []int{0}, 1},
		{"n=1 m>n", []int{2}, 4},
	}
	forms := []struct {
		name  string
		multi bool
		run   func(p *Plan[int64], dsts, srcs [][]int64) error
	}{
		{"RunBatch", true, func(p *Plan[int64], d, s [][]int64) error { return p.RunBatch(d, s) }},
		{"ReduceBatch", false, func(p *Plan[int64], d, s [][]int64) error { return p.ReduceBatch(d, s) }},
		{"RunEach", true, func(p *Plan[int64], d, s [][]int64) error { return errors.Join(p.RunEach(nil, d, s)...) }},
		{"ReduceEach", false, func(p *Plan[int64], d, s [][]int64) error { return errors.Join(p.ReduceEach(nil, d, s)...) }},
	}
	fill := func(width int, v int64) [][]int64 {
		dsts := make([][]int64, k)
		for j := range dsts {
			dsts[j] = make([]int64, width)
			for i := range dsts[j] {
				dsts[j][i] = v
			}
		}
		return dsts
	}
	for _, name := range []string{"auto", "serial", "sorted", "sharded", "chunked", "parallel", "spinetree"} {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []core.Op[int64]{core.AddInt64, core.MaxInt64} {
			for _, sh := range shapes {
				n := len(sh.labels)
				srcs := make([][]int64, k)
				wants := make([]core.Result[int64], k)
				for j := range srcs {
					srcs[j] = make([]int64, n)
					for i := range srcs[j] {
						srcs[j][i] = int64(rng.Intn(200) - 100)
					}
					if wants[j], err = core.Serial(op, srcs[j], sh.labels, sh.m); err != nil {
						t.Fatal(err)
					}
				}
				plan, err := be.Plan(op, sh.labels, sh.m, core.Config{Workers: 4})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, sh.name, err)
				}
				for _, f := range forms {
					width := sh.m
					if f.multi {
						width = n
					}
					zeroed, marked := fill(width, 0), fill(width, sentinel)
					if err := f.run(plan, zeroed, srcs); err != nil {
						t.Fatalf("%s/%s/%s/%s zeroed: %v", name, op.Name, sh.name, f.name, err)
					}
					if err := f.run(plan, marked, srcs); err != nil {
						t.Fatalf("%s/%s/%s/%s marked: %v", name, op.Name, sh.name, f.name, err)
					}
					for j := range srcs {
						want := wants[j].Reductions
						if f.multi {
							want = wants[j].Multi
						}
						for i := range want {
							if marked[j][i] != zeroed[j][i] || zeroed[j][i] != want[i] {
								t.Fatalf("%s/%s/%s/%s vector %d [%d]: marked dst %d, zeroed %d, serial %d",
									name, op.Name, sh.name, f.name, j, i, marked[j][i], zeroed[j][i], want[i])
							}
						}
					}
				}
				plan.Close()
			}
		}
	}
}

// TestRunBatchZeroAllocs asserts the batch perf property: a warm plan
// evaluates a whole batch with zero heap allocations on the fused
// paths (serial, sorted serial and team, chunked team).
func TestRunBatchZeroAllocs(t *testing.T) {
	values, labels, m := planAllocInput()
	const k = 4
	srcs := make([][]int64, k)
	multiDsts := make([][]int64, k)
	redDsts := make([][]int64, k)
	for j := 0; j < k; j++ {
		srcs[j] = values
		multiDsts[j] = make([]int64, len(values))
		redDsts[j] = make([]int64, m)
	}
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"serial", core.Config{}},
		{"sorted", core.Config{Workers: 1}},
		{"sorted", core.Config{Workers: 4}},
		{"chunked", core.Config{Workers: 4}},
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
		runBatch := func() {
			if err := plan.RunBatch(multiDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		reduceBatch := func() {
			if err := plan.ReduceBatch(redDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		runBatchCall := func() {
			if err := plan.RunBatchCall(Call{}, multiDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		reduceBatchCall := func() {
			if err := plan.ReduceBatchCall(Call{}, redDsts, srcs); err != nil {
				t.Fatal(err)
			}
		}
		runBatch()
		reduceBatch() // warm the team and any lazy scratch
		if allocs := testing.AllocsPerRun(5, runBatch); allocs != 0 {
			t.Errorf("%s/w%d: RunBatch %.1f allocs/run, want 0", tc.name, tc.cfg.Workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduceBatch); allocs != 0 {
			t.Errorf("%s/w%d: ReduceBatch %.1f allocs/run, want 0", tc.name, tc.cfg.Workers, allocs)
		}
		// The per-call override variants are //mp:hotpath too: the
		// config save/restore must stay on the stack.
		if allocs := testing.AllocsPerRun(5, runBatchCall); allocs != 0 {
			t.Errorf("%s/w%d: RunBatchCall %.1f allocs/run, want 0", tc.name, tc.cfg.Workers, allocs)
		}
		if allocs := testing.AllocsPerRun(5, reduceBatchCall); allocs != 0 {
			t.Errorf("%s/w%d: ReduceBatchCall %.1f allocs/run, want 0", tc.name, tc.cfg.Workers, allocs)
		}
		plan.Close()
	}
}

// TestBatchValidation: shape mismatches and closed plans are typed
// input errors, checked before any work.
func TestBatchValidation(t *testing.T) {
	labels := []int{0, 1, 0, 2}
	be, err := Open[int64]("serial")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(core.AddInt64, labels, 3, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := [][]int64{{1, 2, 3, 4}}
	if err := plan.RunBatch([][]int64{make([]int64, 4)}, good); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	// Count mismatch.
	if err := plan.RunBatch(nil, good); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("dst/src count mismatch accepted: %v", err)
	}
	// Wrong source length.
	if err := plan.RunBatch([][]int64{make([]int64, 4)}, [][]int64{{1, 2}}); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("short source accepted: %v", err)
	}
	// Wrong destination length — and ReduceBatch wants length m, not n.
	if err := plan.RunBatch([][]int64{make([]int64, 3)}, good); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("short multi destination accepted: %v", err)
	}
	if err := plan.ReduceBatch([][]int64{make([]int64, 4)}, good); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("n-length reduce destination accepted: %v", err)
	}
	if err := plan.ReduceBatch([][]int64{make([]int64, 3)}, good); err != nil {
		t.Fatalf("valid reduce batch rejected: %v", err)
	}
	// Empty batch is a no-op, not an error.
	if err := plan.RunBatch(nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	plan.Close()
	if err := plan.RunBatch([][]int64{make([]int64, 4)}, good); !errors.Is(err, core.ErrBadInput) {
		t.Errorf("closed plan accepted a batch: %v", err)
	}
}

// TestBatchCancellation: a cancelled context surfaces as
// context.Canceled from the fused batch paths and is never masked by
// the auto fallback.
func TestBatchCancellation(t *testing.T) {
	values, labels, m := planAllocInput()
	srcs := [][]int64{values, values}
	multiDsts := [][]int64{make([]int64, len(values)), make([]int64, len(values))}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"serial", core.Config{Ctx: ctx}},
		{"sorted", core.Config{Ctx: ctx, Workers: 4}},
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
		if err := plan.RunBatch(multiDsts, srcs); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", tc.name, err)
		}
		plan.Close()
	}
}

// TestBatchPanicRecovery: a combine panic mid-batch surfaces as the
// typed engine-panic error on explicit backends, the team stays
// healthy for the next batch, and the auto plan's fallback absorbs the
// failure into a correct serial batch.
func TestBatchPanicRecovery(t *testing.T) {
	const n, m, k = 2000, 16, 3
	rng := rand.New(rand.NewSource(95))
	labels, srcs, multiDsts, _ := batchInput(rng, n, m, k)
	// Every worker calls Combine concurrently, so the one-shot latch
	// must be atomic.
	var fired atomic.Bool
	oneShot := core.Op[int64]{
		Name:     "+int64 (one-shot panic)",
		Identity: 0,
		Combine: func(a, x int64) int64 {
			if fired.CompareAndSwap(false, true) {
				panic("injected")
			}
			return a + x
		},
		IsIdentity: func(x int64) bool { return x == 0 },
	}
	for _, name := range []string{"sorted", "chunked"} {
		fired.Store(false)
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(oneShot, labels, m, core.Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		var pe *core.EnginePanicError
		if err := plan.RunBatch(multiDsts, srcs); !errors.As(err, &pe) {
			t.Fatalf("%s: want EnginePanicError, got %v", name, err)
		}
		if !fired.Load() {
			t.Fatalf("%s: panic never fired", name)
		}
		// Same plan, same team: the retry must succeed and be correct —
		// the aborting worker drained its barrier phases instead of
		// poisoning the team.
		if err := plan.RunBatch(multiDsts, srcs); err != nil {
			t.Fatalf("%s: batch after recovered panic: %v", name, err)
		}
		for j := 0; j < k; j++ {
			want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInt64(multiDsts[j], want.Multi) {
				t.Fatalf("%s: post-recovery batch vector %d differs", name, j)
			}
		}
		plan.Close()
	}

	// The auto plan degrades the failed batch to the fused serial batch.
	fired.Store(false)
	be, err := Open[int64]("auto")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.Plan(oneShot, labels, m, core.Config{Workers: 4, AutoCal: &core.AutoCalibration{SerialMax: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	if err := plan.RunBatch(multiDsts, srcs); err != nil {
		t.Fatalf("auto batch fallback: %v", err)
	}
	if !fired.Load() {
		t.Fatal("auto: panic never fired")
	}
	for j := 0; j < k; j++ {
		want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInt64(multiDsts[j], want.Multi) {
			t.Fatalf("auto: fallback batch vector %d differs", j)
		}
	}
}

// FuzzBatchParity cross-checks RunBatch/ReduceBatch on every backend
// against per-vector serial references over fuzz-chosen shapes and
// batch sizes.
func FuzzBatchParity(f *testing.F) {
	f.Add(int64(1), uint16(256), uint8(8), uint8(3))
	f.Add(int64(2), uint16(1), uint8(1), uint8(1))
	f.Add(int64(4), uint16(700), uint8(30), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, mRaw, kRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 1024
		m := int(mRaw)%32 + 1
		k := int(kRaw)%4 + 1
		labels, srcs, multiDsts, redDsts := batchInput(rng, n, m, k)
		wants := make([]core.Result[int64], k)
		for j := 0; j < k; j++ {
			want, err := core.Serial(core.AddInt64, srcs[j], labels, m)
			if err != nil {
				t.Fatal(err)
			}
			wants[j] = want
		}
		for _, name := range Names() {
			be, err := Open[int64](name)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := be.Plan(core.AddInt64, labels, m, backendCfg(name))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := plan.RunBatch(multiDsts, srcs); err != nil {
				t.Fatalf("%s: RunBatch: %v", name, err)
			}
			if err := plan.ReduceBatch(redDsts, srcs); err != nil {
				t.Fatalf("%s: ReduceBatch: %v", name, err)
			}
			for j := 0; j < k; j++ {
				if !equalInt64(multiDsts[j], wants[j].Multi) {
					t.Fatalf("%s: n=%d m=%d k=%d: RunBatch[%d] differs", name, n, m, k, j)
				}
				if !equalInt64(redDsts[j], wants[j].Reductions) {
					t.Fatalf("%s: n=%d m=%d k=%d: ReduceBatch[%d] differs", name, n, m, k, j)
				}
			}
			plan.Close()
		}
	})
}

// atCombine calls fire once, at the at-th combine of a call, counted
// across the call's workers.
type atCombine struct {
	at    int64
	count atomic.Int64
	fire  func()
}

func (h *atCombine) Combine(string, int) {
	if h.count.Add(1) == h.at {
		h.fire()
	}
}
func (h *atCombine) Barrier(string, int)          {}
func (h *atCombine) SpineTest(_ int, s bool) bool { return s }

// TestBatchNoLateWrites pins what lets the service hand a request's
// vectors back to a pool once it has their outcome: RunBatchCall,
// ReduceBatchCall and RunEach write no destination after they return,
// whether the round succeeds, is cancelled midway or panics in the
// engine. The test writes every destination element as soon as each
// call returns, so a worker still writing shows as a race under -race.
func TestBatchNoLateWrites(t *testing.T) {
	const n, m, k = 6000, 37, 3
	labels, srcs, multiDsts, redDsts := batchInput(rand.New(rand.NewSource(5)), n, m, k)
	forms := []struct {
		name string
		dsts [][]int64
		run  func(p *Plan[int64], c Call) error
	}{
		{"RunBatchCall", multiDsts, func(p *Plan[int64], c Call) error { return p.RunBatchCall(c, multiDsts, srcs) }},
		{"ReduceBatchCall", redDsts, func(p *Plan[int64], c Call) error { return p.ReduceBatchCall(c, redDsts, srcs) }},
		{"RunEach", multiDsts, func(p *Plan[int64], c Call) error {
			return errors.Join(p.RunEach([]Call{c, c, c}, multiDsts, srcs)...)
		}},
	}
	for _, name := range []string{"auto", "serial", "sorted", "sharded", "chunked", "parallel", "spinetree"} {
		be, err := Open[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range forms {
			for _, mode := range []string{"ok", "cancel", "panic"} {
				ctx, cancel := context.WithCancel(context.Background())
				c := Call{Ctx: ctx}
				switch mode {
				case "cancel":
					c.Hook = &atCombine{at: n / 2, fire: cancel}
				case "panic":
					c.Hook = &atCombine{at: n / 2, fire: func() { panic("injected") }}
				}
				err := f.run(plan, c)
				cancel()
				for _, d := range f.dsts {
					for i := range d {
						d[i] = -1
					}
				}
				if mode == "ok" && err != nil {
					t.Fatalf("%s/%s: %v", name, f.name, err)
				}
			}
		}
		plan.Close()
	}
}
