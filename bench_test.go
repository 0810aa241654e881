package multiprefix

// One benchmark per table and figure of the paper's evaluation, plus
// real-hardware benchmarks of the Go engines. The Table/Figure benches
// drive the simulated CRAY Y-MP substrate at reduced scale (full-scale
// runs live in cmd/experiments; EXPERIMENTS.md records both) and
// report the simulated metrics the paper reports — clocks per element,
// simulated milliseconds — via b.ReportMetric, while the wall-clock
// numbers measure the simulator itself.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"multiprefix/internal/core"
	"multiprefix/internal/dpl"
	"multiprefix/internal/hist"
	"multiprefix/internal/intsort"
	"multiprefix/internal/pram"
	"multiprefix/internal/scan"
	"multiprefix/internal/sparse"
	"multiprefix/internal/vecmp"
	"multiprefix/internal/vector"
)

// BenchmarkTable1NASIS regenerates paper Table 1 (NAS Integer Sort:
// bucket sort vs vendor radix vs multiprefix sort) at 2^18 keys.
func BenchmarkTable1NASIS(b *testing.B) {
	cfg := vector.DefaultConfig()
	var res intsort.Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = intsort.RunTable1(cfg, 1<<18, 1<<15, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BucketClkPerKey, "bucket-clk/key")
	b.ReportMetric(res.CRIClkPerKey, "cri-clk/key")
	b.ReportMetric(res.MPClkPerKey, "mp-clk/key")
}

// BenchmarkTable2SpMV regenerates one Table 2 grid point (order 2000,
// density 0.005): total time of CSR vs JD vs MP.
func BenchmarkTable2SpMV(b *testing.B) {
	cfg := vector.DefaultConfig()
	var row sparse.TableRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = sparse.RunUniformCase(cfg, 2000, 0.005, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.TotalCSR, "csr-ms")
	b.ReportMetric(row.TotalJD, "jd-ms")
	b.ReportMetric(row.TotalMP, "mp-ms")
}

// BenchmarkTable3Phases regenerates Table 3: the fitted (t_e, n_1/2)
// of the four multiprefix loops.
func BenchmarkTable3Phases(b *testing.B) {
	cfg := vector.DefaultConfig()
	var fits [4]struct{ TE, NHalf float64 }
	for i := 0; i < b.N; i++ {
		f, err := vecmp.CharacterizePhases(cfg, []int{4096, 16384, 65536}, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		for p := range f {
			fits[p].TE, fits[p].NHalf = f[p].TE, f[p].NHalf
		}
	}
	b.ReportMetric(fits[0].TE, "spinetree-te")
	b.ReportMetric(fits[1].TE, "rowsum-te")
	b.ReportMetric(fits[2].TE, "spinesum-te")
	b.ReportMetric(fits[3].TE, "prefixsum-te")
}

// BenchmarkTable4Breakdown regenerates the Table 4 setup/eval split at
// order 2000.
func BenchmarkTable4Breakdown(b *testing.B) {
	cfg := vector.DefaultConfig()
	var row sparse.TableRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = sparse.RunUniformCase(cfg, 2000, 0.005, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.SetupJD, "jd-setup-ms")
	b.ReportMetric(row.EvalJD, "jd-eval-ms")
	b.ReportMetric(row.SetupMP, "mp-setup-ms")
	b.ReportMetric(row.EvalMP, "mp-eval-ms")
}

// BenchmarkTable5Circuit regenerates the Table 5 circuit-matrix case.
func BenchmarkTable5Circuit(b *testing.B) {
	cfg := vector.DefaultConfig()
	var row sparse.TableRow
	var err error
	for i := 0; i < b.N; i++ {
		row, err = sparse.RunCircuitCase(cfg, "ADVICE2806", 2806, 7, 2, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.TotalCSR, "csr-ms")
	b.ReportMetric(row.TotalJD, "jd-ms")
	b.ReportMetric(row.TotalMP, "mp-ms")
}

// BenchmarkFigure10Loads regenerates Figure 10's load sensitivity at
// n = 10^5: clocks per element for light, moderate and heavy loads.
func BenchmarkFigure10Loads(b *testing.B) {
	cfg := vector.DefaultConfig()
	perElt := map[string]float64{}
	for i := 0; i < b.N; i++ {
		_, points, err := vecmp.LoadSweep(cfg, []int{100000}, vecmp.PaperLoadCases, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			perElt[p.LoadName] = p.ClocksPerElt
		}
	}
	b.ReportMetric(perElt["load=1"], "light-clk/elt")
	b.ReportMetric(perElt["load=16"], "moderate-clk/elt")
	b.ReportMetric(perElt["load=n"], "heavy-clk/elt")
}

// BenchmarkSection44RowLength regenerates the §4.4 row-length
// ablation: near-sqrt(n) row lengths are flat, bank multiples spike.
func BenchmarkSection44RowLength(b *testing.B) {
	cfg := vector.DefaultConfig()
	byP := map[int]float64{}
	for i := 0; i < b.N; i++ {
		points, err := vecmp.RowLengthSweep(cfg, 65536, []int{233, 256, 289}, 8, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			byP[p.P] = p.ClocksPerElt
		}
	}
	b.ReportMetric(byP[233], "p233-clk/elt")
	b.ReportMetric(byP[256], "p256-bankmult-clk/elt")
	b.ReportMetric(byP[289], "p289-clk/elt")
}

// BenchmarkSection42Multireduce regenerates the §4.2 claim: the
// multireduce variant saves approximately the PREFIXSUM phase.
func BenchmarkSection42Multireduce(b *testing.B) {
	cfg := vector.DefaultConfig()
	var full, reduce float64
	for i := 0; i < b.N; i++ {
		f, r, _, err := vecmp.ReduceSavings(cfg, 100000, 4, 5)
		if err != nil {
			b.Fatal(err)
		}
		full, reduce = f, r
	}
	b.ReportMetric(full, "multiprefix-clk/elt")
	b.ReportMetric(reduce, "multireduce-clk/elt")
}

// BenchmarkSection3PRAMComplexity regenerates the §3 complexity
// accounting: steps per sqrt(n) and work per element on the simulated
// CRCW-ARB PRAM.
func BenchmarkSection3PRAMComplexity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 4096
	p := 64
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(p)
	}
	var res *pram.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = pram.RunMultiprefix(p, values, labels, p, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	main := res.Stats.TotalSteps() - res.Stats.StepsInit
	b.ReportMetric(float64(main)/64.0, "steps/sqrt(n)")
	b.ReportMetric(float64(res.Stats.Work)/float64(n), "work/elt")
}

// BenchmarkSection12PlusSimulation regenerates the §1.2 claim: the
// CRCW-PLUS-on-CRCW-ARB simulation's slowdown stays constant once
// n >= p^2.
func BenchmarkSection12PlusSimulation(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		points, err := pram.MeasureSlowdown(8, []int{1, 4}, 2, 7)
		if err != nil {
			b.Fatal(err)
		}
		last = points[len(points)-1].Slowdown
	}
	b.ReportMetric(last, "slowdown-alpha4")
}

// --- Real-hardware benchmarks of the Go engines ---

func benchInput(n, m int) ([]int64, []int) {
	rng := rand.New(rand.NewSource(42))
	values := make([]int64, n)
	labels := make([]int, n)
	for i := range values {
		values[i] = int64(rng.Intn(100))
		labels[i] = rng.Intn(m)
	}
	return values, labels
}

func BenchmarkEngineSerial(b *testing.B) {
	values, labels := benchInput(1<<20, 1<<14)
	b.SetBytes(1 << 20 * 8)
	for i := 0; i < b.N; i++ {
		if _, err := core.Serial(AddInt64, values, labels, 1<<14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineChunked(b *testing.B) {
	values, labels := benchInput(1<<20, 1<<14)
	b.SetBytes(1 << 20 * 8)
	for i := 0; i < b.N; i++ {
		if _, err := core.Chunked(AddInt64, values, labels, 1<<14, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSpinetree(b *testing.B) {
	values, labels := benchInput(1<<18, 1<<12)
	b.SetBytes(1 << 18 * 8)
	for i := 0; i < b.N; i++ {
		if _, err := core.Spinetree(AddInt64, values, labels, 1<<12, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineParallel(b *testing.B) {
	values, labels := benchInput(1<<18, 1<<12)
	b.SetBytes(1 << 18 * 8)
	for i := 0; i < b.N; i++ {
		if _, err := core.Parallel(AddInt64, values, labels, 1<<12, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePooled measures the zero-allocation hot path: every
// engine on reusable Workspace buffers with the int64-sum fast kernel.
// Compare against the BenchmarkEngine* baselines above; cmd/benchjson
// records the same comparison in BENCH_engines.json.
func BenchmarkEnginePooled(b *testing.B) {
	values, labels := benchInput(1<<18, 1<<10)
	cfg := Config{Workers: 4}
	ws := NewWorkspace[int64]()
	buf := ws.Acquire()
	defer ws.Release(buf)
	cases := []struct {
		name string
		run  func() error
	}{
		{"serial", func() error { _, err := buf.Serial(AddInt64, values, labels, 1<<10); return err }},
		{"spinetree", func() error { _, err := buf.Spinetree(AddInt64, values, labels, 1<<10, cfg); return err }},
		{"chunked", func() error { _, err := buf.Chunked(AddInt64, values, labels, 1<<10, cfg); return err }},
		{"parallel", func() error { _, err := buf.Parallel(AddInt64, values, labels, 1<<10, cfg); return err }},
		{"auto", func() error { _, err := buf.Auto(AddInt64, values, labels, 1<<10, cfg); return err }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			if err := tc.run(); err != nil { // warm the pooled storage
				b.Fatal(err)
			}
			b.SetBytes(1 << 18 * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanReuse measures the "plan once, run many" pipeline per
// backend against the matching one-shot Compute, at n=2^16 and 2^18:
// plan-run is Run, plan-reduce is Reduce, and plan-batch1 is a RunBatch
// of one vector into caller storage — what the service runs for a
// single-vector request, and what Auto's trial times. The plan rows pay
// no per-call validation or label-structure setup and allocate nothing
// in steady state. cmd/benchjson records the compute/plan-run
// comparison in BENCH_engines.json.
func BenchmarkPlanReuse(b *testing.B) {
	const m = 1 << 10
	cfg := Config{Workers: 4}
	for _, n := range []int{1 << 16, 1 << 18} {
		values, labels := benchInput(n, m)
		dst, src := [][]int64{make([]int64, n)}, [][]int64{values}
		for _, name := range []string{"serial", "sorted", "sharded", "spinetree", "chunked", "parallel", "auto"} {
			be, err := OpenBackend[int64](name)
			if err != nil {
				b.Fatal(err)
			}
			prefix := fmt.Sprintf("n=%d/%s/", n, name)
			b.Run(prefix+"compute", func(b *testing.B) {
				b.SetBytes(int64(n) * 8)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := be.Compute(AddInt64, values, labels, m, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			plan, err := be.Plan(AddInt64, labels, m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range []struct {
				name string
				run  func() error
			}{
				{"plan-run", func() error { _, err := plan.Run(values); return err }},
				{"plan-batch1", func() error { return plan.RunBatch(dst, src) }},
				{"plan-reduce", func() error { _, err := plan.Reduce(values); return err }},
			} {
				b.Run(prefix+row.name, func(b *testing.B) {
					if err := row.run(); err != nil { // warm plan storage
						b.Fatal(err)
					}
					b.SetBytes(int64(n) * 8)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := row.run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			plan.Close()
		}
	}
}

// BenchmarkEngineAuto measures the adaptive engine end to end,
// including its per-call shape dispatch, on both sides of the
// calibrated crossover.
func BenchmarkEngineAuto(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 18} {
		values, labels := benchInput(n, 1<<8)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				if _, err := Auto(AddInt64, values, labels, 1<<8, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHistogram(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n, m := 1<<20, 1<<12
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(m)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hist.Serial(keys, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("atomic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hist.Atomic(keys, m, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hist.Sharded(keys, m, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multireduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hist.Multireduce(keys, m, core.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRanking(b *testing.B) {
	keys := intsort.NASKeys(1<<20, 1<<16, 0)
	b.Run("multiprefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Rank(keys, 1<<16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := intsort.RankCounting(keys, 1<<16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := intsort.RankRadix(keys, 1<<16, 11); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib-stable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx := make([]int, len(keys))
			for j := range idx {
				idx[j] = j
			}
			sort.SliceStable(idx, func(x, y int) bool { return keys[idx[x]] < keys[idx[y]] })
		}
	})
}

func BenchmarkScan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]int64, 1<<22)
	for i := range xs {
		xs[i] = int64(rng.Intn(100))
	}
	buf := make([]int64, len(xs))
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, xs)
			scan.ExclusiveInt64(buf)
		}
	})
	b.Run("partition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, xs)
			scan.ParallelExclusiveInt64(buf, 0)
		}
	})
	b.Run("blelloch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, xs)
			scan.BlellochExclusiveInt64(buf, 0)
		}
	})
}

// BenchmarkSpMVGo measures the plain-Go kernels on real hardware.
func BenchmarkSpMVGo(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	coo, err := sparse.RandomUniform(rng, 5000, 0.002)
	if err != nil {
		b.Fatal(err)
	}
	csr, err := coo.ToCSR()
	if err != nil {
		b.Fatal(err)
	}
	jd, err := csr.ToJD()
	if err != nil {
		b.Fatal(err)
	}
	x := sparse.RandomVector(rng, 5000)
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparse.MulCSR(csr, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparse.MulJD(jd, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multireduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparse.MulCOOChunked(coo, x, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkArbStrategies is the DESIGN.md arbitration ablation: atomic
// stores vs striped mutexes for the SPINETREE concurrent write.
func BenchmarkArbStrategies(b *testing.B) {
	values, labels := benchInput(1<<18, 1<<10)
	b.Run("atomic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Parallel(AddInt64, values, labels, 1<<10, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mutex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Parallel(AddInt64, values, labels, 1<<10, Config{MutexArb: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInitStrategies is the DESIGN.md bucket-initialization
// ablation: direct O(m) clearing vs the paper's theoretical
// label-indirect clearing.
func BenchmarkInitStrategies(b *testing.B) {
	values, labels := benchInput(1<<18, 1<<16)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Spinetree(AddInt64, values, labels, 1<<16, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indirect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Spinetree(AddInt64, values, labels, 1<<16, Config{IndirectInit: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVectorUpdateLoop is the §1 "Vector Update Loop" study on
// the simulated machine: scalar loop vs lane-private copies vs
// multireduce, at a small and a large bin count.
func BenchmarkVectorUpdateLoop(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 100000
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(rng.Intn(1 << 16))
	}
	cfg := vector.DefaultConfig()
	var points []hist.HistPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = hist.HistSweep(cfg, keys, []int{256, 65536})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].PrivateClk, "private-clk/key@256bins")
	b.ReportMetric(points[0].MPClk, "mp-clk/key@256bins")
	b.ReportMetric(points[1].PrivateClk, "private-clk/key@65536bins")
	b.ReportMetric(points[1].MPClk, "mp-clk/key@65536bins")
}

// BenchmarkDataParallelSorts compares the sorts expressible in the
// scan-vector layer: the paper's rank sort, the split-radix sort, and
// the segment-parallel quicksort.
func BenchmarkDataParallelSorts(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	n := 1 << 17
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 16)
	}
	b.Run("ranksort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dpl.RankSort(keys, 1<<16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("splitradix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dpl.SplitRadixSort(keys, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("quicksort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dpl.QuickSort(keys); err != nil {
				b.Fatal(err)
			}
		}
	})
}
