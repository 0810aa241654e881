// Command benchjson measures the multiprefix engines — unpooled
// generic baseline, unpooled fast-path, and pooled fast-path — across
// input sizes, plus the unified backend registry's "plan once, run
// many" pipeline against the matching one-shot Compute, and writes a
// machine-readable JSON snapshot (ns/op, allocs/op, ns/elem per
// engine × size, plan-reuse speedups per backend, and the simulated
// vectorized engine's clocks per element), and the auto_regret grid:
// how far Auto's plan-time trial and one-shot rule land from the
// fastest explicit engine. The committed BENCH_engines.json at the
// repo root is the reference snapshot; `make bench-json` regenerates
// it. The -backend flag restricts the plan-reuse section to a
// comma-separated list of registry names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
	"multiprefix/internal/vecmp"
	"multiprefix/internal/vector"
)

// Entry is one engine × variant × size measurement.
type Entry struct {
	Engine      string  `json:"engine"`
	Variant     string  `json:"variant"` // generic | fast | pooled
	N           int     `json:"n"`
	M           int     `json:"m"`
	Reps        int     `json:"reps"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	NsPerElem   float64 `json:"ns_per_elem"`
}

// VecEntry is one simulated vectorized measurement, in the paper's
// clocks-per-element currency.
type VecEntry struct {
	Kernel     string  `json:"kernel"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	ClkPerElem float64 `json:"clk_per_elem"`
}

// PlanEntry compares one backend's one-shot Compute against a Plan
// built once and Run repeatedly on the same shape.
type PlanEntry struct {
	Backend        string  `json:"backend"`
	N              int     `json:"n"`
	M              int     `json:"m"`
	NsPerOpOneshot float64 `json:"ns_per_op_oneshot"`
	AllocsOneshot  float64 `json:"allocs_per_op_oneshot"`
	NsPerOpPlanRun float64 `json:"ns_per_op_plan_run"`
	AllocsPlanRun  float64 `json:"allocs_per_op_plan_run"`
	Speedup        float64 `json:"speedup"`
}

// SortedEntry compares the planned sorted engine against the pooled
// serial bucket pass on the label-heavy shape where the §6 analysis
// predicts the sorted layout wins (bucket array beyond cache). The
// ratio is recorded honestly: on hosts whose last-level cache holds
// the whole bucket array the serial pass stays ahead.
type SortedEntry struct {
	N              int     `json:"n"`
	M              int     `json:"m"`
	Workers        int     `json:"workers"`
	NsSerialPooled float64 `json:"ns_per_op_serial_pooled"`
	NsSortedPlan   float64 `json:"ns_per_op_sorted_plan"`
	Speedup        float64 `json:"speedup"`
}

// ShardEntry compares the sharded backend at S = GOMAXPROCS shards
// against the single-shard sorted plan on the same shape — the
// shard-scaling headline. IdealFraction is Speedup / Shards: 1.0 is
// perfect linear scaling, and the carry exchange's ⌈log₂S⌉ barrier
// rounds plus the second full pass bound how close a real host gets.
type ShardEntry struct {
	N              int     `json:"n"`
	M              int     `json:"m"`
	Shards         int     `json:"shards"`
	Rounds         int     `json:"rounds"`
	NsSortedSingle float64 `json:"ns_per_op_sorted_single"`
	NsSharded      float64 `json:"ns_per_op_sharded"`
	Speedup        float64 `json:"speedup"`
	IdealFraction  float64 `json:"ideal_fraction"`
}

// CarryEntry records the carry-exchange round count at one shard
// count: the ⌈log₂S⌉ round bound and the rounds a run actually
// executed (always equal — the exchange is round-optimal by
// construction, and shard-smoke asserts the same through cmd/mp).
type CarryEntry struct {
	Shards         int `json:"shards"`
	M              int `json:"m"`
	Rounds         int `json:"rounds"`
	MeasuredRounds int `json:"measured_rounds"`
}

// Spread is the median and interquartile range of one contender's
// samples, in ns per evaluation.
type Spread struct {
	MedianNs float64 `json:"median_ns"`
	IQRNs    float64 `json:"iqr_ns"`
}

// RegretCell is one auto_regret shape. Planned: each sample times a
// freshly built plan (its build, the auto plan's trial included, in no
// timing) on the auto, serial, chunked and sorted backends; Picks
// counts the trial's picks. OneShot: one-shot Compute on the auto,
// serial and chunked backends. A regret is auto's median over the
// faster of serial's and chunked's; sorted is timed to show whether it
// should join the trial's candidates.
type RegretCell struct {
	N             int               `json:"n"`
	M             int               `json:"m"`
	Planned       map[string]Spread `json:"planned"`
	Picks         map[string]int    `json:"planned_picks"`
	PlannedRegret float64           `json:"planned_regret"`
	OneShot       map[string]Spread `json:"oneshot"`
	OneShotPick   string            `json:"oneshot_pick"`
	OneShotRegret float64           `json:"oneshot_regret"`
}

// AutoRegret is the regret grid of Auto's two choices: the auto plan's
// build-time trial and the one-shot rule. HostLimited marks that the
// grid ran with fewer cores than the rule's chunked threshold needs.
type AutoRegret struct {
	HostLimited bool         `json:"host_limited"`
	Workers     int          `json:"workers"`
	Samples     int          `json:"samples"`
	Cells       []RegretCell `json:"cells"`
}

// BatchEntry compares one RunBatch of k vectors against k single Runs
// (plus the result copies RunBatch makes unnecessary) on a warm plan.
type BatchEntry struct {
	Backend        string  `json:"backend"`
	N              int     `json:"n"`
	M              int     `json:"m"`
	K              int     `json:"k"`
	NsPerBatch     float64 `json:"ns_per_batch"`
	NsPerKRuns     float64 `json:"ns_per_k_runs"`
	AllocsPerBatch float64 `json:"allocs_per_batch"`
	Speedup        float64 `json:"speedup"`
}

// UpdateEntry compares, on a bound stateful plan, one point update
// plus one point query against the full re-evaluation they replace.
// Mode records the plan's maintenance tier ("fenwick-int64",
// "fenwick-float64", or "rerun" for non-invertible ops), Burst the
// calibrated update budget before the Fenwick tiers fall back to a
// full refresh. Speedup is ns_full_rerun / (ns_update +
// ns_query_prefix): what a single dirty point costs against
// recomputing everything.
type UpdateEntry struct {
	Backend       string  `json:"backend"`
	Elem          string  `json:"elem"`
	Op            string  `json:"op"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Mode          string  `json:"mode"`
	Burst         int     `json:"burst"`
	NsFullRerun   float64 `json:"ns_full_rerun"`
	NsUpdate      float64 `json:"ns_update"`
	NsQueryPrefix float64 `json:"ns_query_prefix"`
	NsReduceLabel float64 `json:"ns_reduce_label"`
	Speedup       float64 `json:"speedup"`
}

// Report is the full snapshot.
type Report struct {
	GoVersion      string        `json:"go_version"`
	GOOS           string        `json:"goos"`
	GOARCH         string        `json:"goarch"`
	GOMAXPROCS     int           `json:"gomaxprocs"`
	Workers        int           `json:"workers"`
	Engines        []Entry       `json:"engines"`
	PlanReuse      []PlanEntry   `json:"plan_reuse"`
	SortedVsSerial []SortedEntry `json:"sorted_vs_serial"`
	ShardScaling   []ShardEntry  `json:"shard_scaling"`
	CarryRounds    []CarryEntry  `json:"carry_rounds"`
	AutoRegret     *AutoRegret   `json:"auto_regret"`
	Batch          []BatchEntry  `json:"batch"`
	UpdateVsRerun  []UpdateEntry `json:"update_vs_rerun"`
	Vectorized     []VecEntry    `json:"vectorized"`
}

// genericAdd is AddInt64 without the FastOp capability: the
// per-element closure baseline the monomorphic kernels replace.
var genericAdd = core.Op[int64]{
	Name:       "+int64 (generic)",
	Identity:   0,
	Combine:    func(a, b int64) int64 { return a + b },
	IsIdentity: func(x int64) bool { return x == 0 },
}

func input(n, m int) ([]int64, []int) {
	rng := rand.New(rand.NewSource(1993))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(1000))
		labels[i] = rng.Intn(m)
	}
	return values, labels
}

// measure times fn (one full computation per call) with a hand-rolled
// loop: a warm-up call, rep-count selection targeting ~200ms, then a
// timed loop bracketed by runtime.ReadMemStats for the allocation
// count. GC is left enabled; the pooled paths allocate nothing, so GC
// noise only affects the baselines it would also affect in production.
func measure(fn func()) (nsPerOp, allocsPerOp float64, reps int) {
	fn() // warm-up: pools fill, teams start, calibration runs
	t0 := time.Now()
	fn()
	per := time.Since(t0)
	reps = int(200 * time.Millisecond / max(per, time.Microsecond))
	reps = min(max(reps, 3), 10000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(reps)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(reps)
	return nsPerOp, allocsPerOp, reps
}

// measureMin is best-of-3 measure: the head-to-head engine ratios
// (sorted_vs_serial, shard_scaling) compare timings taken minutes
// apart on a shared box, where single measurements wander ~10%; the
// minimum is the standard noise-robust estimator for such ratios.
func measureMin(fn func()) float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		ns, _, _ := measure(fn)
		best = min(best, ns)
	}
	return best
}

// measureUpdate times one update_vs_rerun row: bind vals on a fresh
// plan, then measure a full re-evaluation, a single alternating point
// update, and the point queries that read the maintained state. On the
// Fenwick tiers a query is interleaved every 256 updates so the
// plan's pending counter never crosses its burst budget mid-measurement
// (the query resets it); its O(log n) cost is amortized into the
// update number at well under 1%. On the re-run tier the update is
// measured bare (a dirty mark, no burst machinery) and each measured
// query is preceded by an update so it honestly pays the refresh a
// dirty point forces.
func measureUpdate[T any](report *Report, backendName, elem, opName string, op core.Op[T], vals []T, labels []int, m int, alt [2]T, cfg core.Config) {
	be, err := backend.Open[T](backendName)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := be.Plan(op, labels, m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer plan.Close()
	if err := plan.Bind(vals); err != nil {
		log.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	n := len(vals)
	idx := n / 2
	lab := labels[idx]
	fenwick := strings.HasPrefix(plan.IncStats().Mode, "fenwick")

	rerunNs := measureMin(func() { _, err := plan.Run(vals); check(err) })

	flip := 0
	updNs, _, _ := measure(func() {
		check(plan.Update(idx, alt[flip&1]))
		flip++
		if fenwick && flip&255 == 0 {
			_, err := plan.QueryPrefix(idx)
			check(err)
		}
	})
	qNs, _, _ := measure(func() {
		if !fenwick {
			check(plan.Update(idx, alt[flip&1]))
			flip++
		}
		_, err := plan.QueryPrefix(idx)
		check(err)
	})
	rNs, _, _ := measure(func() {
		if !fenwick {
			check(plan.Update(idx, alt[flip&1]))
			flip++
		}
		_, err := plan.ReduceLabel(lab)
		check(err)
	})

	st := plan.IncStats()
	entry := UpdateEntry{
		Backend: backendName, Elem: elem, Op: opName, N: n, M: m,
		Mode: st.Mode, Burst: st.Burst,
		NsFullRerun: rerunNs, NsUpdate: updNs,
		NsQueryPrefix: qNs, NsReduceLabel: rNs,
		Speedup: rerunNs / (updNs + qNs),
	}
	report.UpdateVsRerun = append(report.UpdateVsRerun, entry)
	fmt.Printf("%-10s update   n=%-8d m=%-5d %-15s %10.0f ns rerun %8.1f ns upd %8.1f ns query %8.0fx\n",
		backendName+"/"+elem, n, m, st.Mode, rerunNs, updNs, qNs, entry.Speedup)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "BENCH_engines.json", "output path")
	quick := flag.Bool("quick", false, "single reduced size (CI smoke)")
	backends := flag.String("backend", "serial,sorted,sharded,spinetree,chunked,parallel,auto",
		"comma-separated backends for the plan-reuse section (registry names: "+
			strings.Join(backend.Names(), ", ")+")")
	flag.Parse()

	workers := 4
	cfg := core.Config{Workers: workers}
	sizes := []struct{ n, m int }{{1 << 16, 1 << 8}, {1 << 20, 1 << 10}}
	if *quick {
		sizes = sizes[:1]
	}

	report := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}

	ws := core.NewWorkspace[int64]()
	b := ws.Acquire()
	defer ws.Release(b)

	for _, sz := range sizes {
		values, labels := input(sz.n, sz.m)
		run := func(engine, variant string, fn func()) {
			ns, allocs, reps := measure(fn)
			report.Engines = append(report.Engines, Entry{
				Engine: engine, Variant: variant, N: sz.n, M: sz.m, Reps: reps,
				NsPerOp: ns, AllocsPerOp: allocs, NsPerElem: ns / float64(sz.n),
			})
			fmt.Printf("%-10s %-8s n=%-8d m=%-5d %12.0f ns/op %8.1f allocs/op %7.2f ns/elem\n",
				engine, variant, sz.n, sz.m, ns, allocs, ns/float64(sz.n))
		}
		check := func(err error) {
			if err != nil {
				log.Fatal(err)
			}
		}

		run("serial", "generic", func() { _, err := core.Serial(genericAdd, values, labels, sz.m); check(err) })
		run("serial", "fast", func() { _, err := core.Serial(core.AddInt64, values, labels, sz.m); check(err) })
		run("serial", "pooled", func() { _, err := b.Serial(core.AddInt64, values, labels, sz.m); check(err) })

		run("sorted", "generic", func() { _, err := core.Sorted(genericAdd, values, labels, sz.m, cfg); check(err) })
		run("sorted", "fast", func() { _, err := core.Sorted(core.AddInt64, values, labels, sz.m, cfg); check(err) })
		run("sorted", "pooled", func() { _, err := b.Sorted(core.AddInt64, values, labels, sz.m, cfg); check(err) })

		run("spinetree", "generic", func() { _, err := core.Spinetree(genericAdd, values, labels, sz.m, cfg); check(err) })
		run("spinetree", "fast", func() { _, err := core.Spinetree(core.AddInt64, values, labels, sz.m, cfg); check(err) })
		run("spinetree", "pooled", func() { _, err := b.Spinetree(core.AddInt64, values, labels, sz.m, cfg); check(err) })

		run("chunked", "generic", func() { _, err := core.Chunked(genericAdd, values, labels, sz.m, cfg); check(err) })
		run("chunked", "fast", func() { _, err := core.Chunked(core.AddInt64, values, labels, sz.m, cfg); check(err) })
		run("chunked", "pooled", func() { _, err := b.Chunked(core.AddInt64, values, labels, sz.m, cfg); check(err) })

		run("parallel", "generic", func() { _, err := core.Parallel(genericAdd, values, labels, sz.m, cfg); check(err) })
		run("parallel", "fast", func() { _, err := core.Parallel(core.AddInt64, values, labels, sz.m, cfg); check(err) })
		run("parallel", "pooled", func() { _, err := b.Parallel(core.AddInt64, values, labels, sz.m, cfg); check(err) })

		run("auto", "fast", func() { _, err := core.Auto(core.AddInt64, values, labels, sz.m, cfg); check(err) })
		run("auto", "pooled", func() { _, err := b.Auto(core.AddInt64, values, labels, sz.m, cfg); check(err) })
	}

	// Plan-reuse comparison: each named backend's one-shot Compute
	// against a Plan built once and evaluated repeatedly on the same
	// labels — the cost the §5.2.1 setup/evaluation split amortizes.
	{
		n, m := 1<<18, 1<<10
		if *quick {
			n, m = 1<<16, 1<<8
		}
		values, labels := input(n, m)
		for _, name := range strings.Split(*backends, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			be, err := backend.Open[int64](name)
			if err != nil {
				log.Fatal(err)
			}
			oneNs, oneAllocs, _ := measure(func() {
				if _, err := be.Compute(core.AddInt64, values, labels, m, cfg); err != nil {
					log.Fatal(err)
				}
			})
			plan, err := be.Plan(core.AddInt64, labels, m, cfg)
			if err != nil {
				log.Fatal(err)
			}
			planNs, planAllocs, _ := measure(func() {
				if _, err := plan.Run(values); err != nil {
					log.Fatal(err)
				}
			})
			plan.Close()
			report.PlanReuse = append(report.PlanReuse, PlanEntry{
				Backend: name, N: n, M: m,
				NsPerOpOneshot: oneNs, AllocsOneshot: oneAllocs,
				NsPerOpPlanRun: planNs, AllocsPlanRun: planAllocs,
				Speedup: oneNs / planNs,
			})
			fmt.Printf("%-10s plan     n=%-8d m=%-5d %12.0f ns/op oneshot %12.0f ns/op plan-run %6.2fx\n",
				name, n, m, oneNs, planNs, oneNs/planNs)
		}
	}

	// Sorted vs serial across label counts: the planned sorted scan
	// (sort amortized away) against the pooled serial bucket pass, at
	// one worker. The measured ratios are recorded as-is.
	{
		n := 1 << 18
		ms := []int{1 << 4, 1 << 12}
		if *quick {
			n = 1 << 16
			ms = []int{1 << 4, 1 << 10}
		}
		one := core.Config{Workers: 1}
		be, err := backend.Open[int64]("sorted")
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range ms {
			values, labels := input(n, m)
			serialNs := measureMin(func() {
				if _, err := b.Serial(core.AddInt64, values, labels, m); err != nil {
					log.Fatal(err)
				}
			})
			plan, err := be.Plan(core.AddInt64, labels, m, one)
			if err != nil {
				log.Fatal(err)
			}
			sortedNs := measureMin(func() {
				if _, err := plan.Run(values); err != nil {
					log.Fatal(err)
				}
			})
			plan.Close()
			report.SortedVsSerial = append(report.SortedVsSerial, SortedEntry{
				N: n, M: m, Workers: 1,
				NsSerialPooled: serialNs, NsSortedPlan: sortedNs,
				Speedup: serialNs / sortedNs,
			})
			fmt.Printf("%-10s vs-serial n=%-7d m=%-5d %12.0f ns/op serial %12.0f ns/op sorted %5.2fx\n",
				"sorted", n, m, serialNs, sortedNs, serialNs/sortedNs)
		}
	}

	// Shard scaling: the sharded plan at S = GOMAXPROCS shards against
	// the single-shard (serial) sorted plan on the same shape — what the
	// round-efficient carry exchange buys over the engine it partitions.
	// The ratio is recorded honestly: ideal_fraction reports how much of
	// the S-way linear ideal the host delivers after the ⌈log₂S⌉ barrier
	// rounds and the second full pass take their share.
	{
		s := runtime.GOMAXPROCS(0)
		shapes := []struct{ n, m int }{{1 << 18, 1 << 10}, {1 << 22, 1 << 10}}
		if *quick {
			shapes = shapes[:1]
			shapes[0].n = 1 << 16
		}
		sortedBe, err := backend.Open[int64]("sorted")
		if err != nil {
			log.Fatal(err)
		}
		shardedBe, err := backend.Open[int64]("sharded")
		if err != nil {
			log.Fatal(err)
		}
		for _, sh := range shapes {
			values, labels := input(sh.n, sh.m)
			single, err := sortedBe.Plan(core.AddInt64, labels, sh.m, core.Config{Workers: 1})
			if err != nil {
				log.Fatal(err)
			}
			singleNs := measureMin(func() {
				if _, err := single.Run(values); err != nil {
					log.Fatal(err)
				}
			})
			single.Close()
			plan, err := shardedBe.Plan(core.AddInt64, labels, sh.m, core.Config{Shards: s})
			if err != nil {
				log.Fatal(err)
			}
			shardedNs := measureMin(func() {
				if _, err := plan.Run(values); err != nil {
					log.Fatal(err)
				}
			})
			st, _ := plan.ShardStats()
			plan.Close()
			entry := ShardEntry{
				N: sh.n, M: sh.m, Shards: st.Shards, Rounds: st.Rounds,
				NsSortedSingle: singleNs, NsSharded: shardedNs,
				Speedup:       singleNs / shardedNs,
				IdealFraction: singleNs / shardedNs / float64(st.Shards),
			}
			report.ShardScaling = append(report.ShardScaling, entry)
			fmt.Printf("%-10s scaling  n=%-8d m=%-5d s=%-3d %10.0f ns single %10.0f ns sharded %5.2fx (%4.2f of ideal)\n",
				"sharded", sh.n, sh.m, st.Shards, singleNs, shardedNs, entry.Speedup, entry.IdealFraction)
		}
	}

	// Carry rounds: the exchange schedule the sharded plan runs at each
	// shard count — round bound vs rounds executed (equal by
	// construction: the exchange is a ⌈log₂S⌉ Hillis–Steele exscan).
	{
		n, m := 1<<12, 1<<6
		values, labels := input(n, m)
		be, err := backend.Open[int64]("sharded")
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range []int{1, 2, 4, 8} {
			plan, err := be.Plan(core.AddInt64, labels, m, core.Config{Shards: s})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := plan.Run(values); err != nil {
				log.Fatal(err)
			}
			st, ok := plan.ShardStats()
			plan.Close()
			if !ok {
				log.Fatalf("sharded plan at s=%d reported no shard stats", s)
			}
			report.CarryRounds = append(report.CarryRounds, CarryEntry{
				Shards: st.Shards, M: m, Rounds: st.Rounds,
				MeasuredRounds: st.MeasuredRounds,
			})
			fmt.Printf("%-10s rounds   s=%-3d m=%-5d rounds=%d measured=%d\n",
				"sharded", st.Shards, m, st.Rounds, st.MeasuredRounds)
		}
	}

	report.AutoRegret = autoRegret(*quick)

	// Batched evaluation: one RunBatch of k vectors on a warm plan
	// against k single Runs plus the k result copies the batch makes
	// unnecessary (batch writes straight into caller storage).
	{
		n, m := 1<<18, 1<<10
		if *quick {
			n, m = 1<<16, 1<<8
		}
		values, labels := input(n, m)
		for _, name := range []string{"serial", "sorted", "chunked"} {
			be, err := backend.Open[int64](name)
			if err != nil {
				log.Fatal(err)
			}
			plan, err := be.Plan(core.AddInt64, labels, m, cfg)
			if err != nil {
				log.Fatal(err)
			}
			for _, k := range []int{1, 4, 16} {
				srcs := make([][]int64, k)
				dsts := make([][]int64, k)
				for j := range srcs {
					srcs[j] = values
					dsts[j] = make([]int64, n)
				}
				batchNs, batchAllocs, _ := measure(func() {
					if err := plan.RunBatch(dsts, srcs); err != nil {
						log.Fatal(err)
					}
				})
				loopNs, _, _ := measure(func() {
					for j := 0; j < k; j++ {
						res, err := plan.Run(srcs[j])
						if err != nil {
							log.Fatal(err)
						}
						copy(dsts[j], res.Multi)
					}
				})
				report.Batch = append(report.Batch, BatchEntry{
					Backend: name, N: n, M: m, K: k,
					NsPerBatch: batchNs, NsPerKRuns: loopNs,
					AllocsPerBatch: batchAllocs, Speedup: loopNs / batchNs,
				})
				fmt.Printf("%-10s batch    n=%-8d m=%-5d k=%-3d %10.0f ns/batch %10.0f ns/%d-runs %5.2fx\n",
					name, n, m, k, batchNs, loopNs, k, loopNs/batchNs)
			}
			plan.Close()
		}
	}

	// Update vs re-run: a bound stateful plan maintaining its answers
	// through single-point updates, against the full re-evaluation each
	// dirty point would otherwise force. The int64/float64 sum rows ride
	// the O(log n) Fenwick tiers; the max row is the honest non-invertible
	// baseline where every dirtying query pays a full re-run.
	{
		n, m := 1<<18, 1<<10
		if *quick {
			n, m = 1<<16, 1<<8
		}
		ivals, labels := input(n, m)
		fvals := make([]float64, n)
		for i, v := range ivals {
			fvals[i] = float64(v)
		}
		measureUpdate(&report, "serial", "int64", "sum", core.AddInt64, ivals, labels, m, [2]int64{3, 4}, cfg)
		measureUpdate(&report, "sorted", "int64", "sum", core.AddInt64, ivals, labels, m, [2]int64{3, 4}, cfg)
		measureUpdate(&report, "serial", "float64", "sum", core.AddFloat64, fvals, labels, m, [2]float64{3, 4}, cfg)
		measureUpdate(&report, "serial", "int64", "max", core.MaxInt64, ivals, labels, m, [2]int64{3, 4}, cfg)
	}

	// Simulated vectorized engine: the paper's clocks-per-element
	// currency, via the pooled evaluation path.
	{
		n, m := 1<<16, 1<<8
		if *quick {
			n = 1 << 14
		}
		values, ilabels := input(n, m)
		labels := make([]int32, n)
		for i, l := range ilabels {
			labels[i] = int32(l)
		}
		vws := vecmp.NewWorkspace[int64]()
		vb := vws.Acquire()
		defer vws.Release(vb)
		machine := vector.NewDefault()
		res, err := vecmp.MultiprefixIn(vb, machine, core.AddInt64, values, labels, m, vecmp.Config{})
		if err != nil {
			log.Fatal(err)
		}
		clk := res.Phases.Total() / float64(n)
		report.Vectorized = append(report.Vectorized, VecEntry{
			Kernel: "multiprefix", N: n, M: m, ClkPerElem: clk,
		})
		fmt.Printf("%-10s %-8s n=%-8d m=%-5d %38.2f clk/elem (simulated)\n", "vecmp", "pooled", n, m, clk)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
