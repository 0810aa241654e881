package main

import (
	"fmt"
	"log"
	"runtime"
	"slices"
	"time"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// regretSamples is the sample count per contender and cell; see
// interleaved for what one sample is.
const (
	regretSamples = 7
	regretSpan    = 100 * time.Millisecond
)

// autoRegret measures the auto_regret grid at the default worker count:
// n ∈ {2^16, 2^18, 2^20, 2^22} × m ∈ {4, 16, 256, 4096, 2^16} (quick:
// n = 2^16 only), planned and one-shot.
func autoRegret(quick bool) *AutoRegret {
	ns := []int{1 << 16, 1 << 18, 1 << 20, 1 << 22}
	if quick {
		ns = ns[:1]
	}
	workers := runtime.GOMAXPROCS(0)
	out := &AutoRegret{HostLimited: workers < 4, Workers: workers, Samples: regretSamples}
	for _, n := range ns {
		for _, m := range []int{4, 16, 256, 4096, 1 << 16} {
			c := regretCell(n, m)
			out.Cells = append(out.Cells, c)
			fmt.Printf("%-10s regret   n=%-8d m=%-6d planned %5.3f (picks %v, auto/sorted %5.3f) one-shot %5.3f (%s)\n",
				"auto", n, m, c.PlannedRegret, c.Picks, c.Planned["auto"].MedianNs/c.Planned["sorted"].MedianNs, c.OneShotRegret, c.OneShotPick)
		}
	}
	return out
}

func regretCell(n, m int) RegretCell {
	values, labels := input(n, m)
	cfg := core.Config{}
	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	open := func(name string) backend.Backend[int64] {
		be, err := backend.Open[int64](name)
		check(err)
		return be
	}
	planned := map[string][]float64{}
	oneshot := map[string][]float64{}
	picks := map[string]int{}
	for range regretSamples {
		// Each sample builds every contender's plan fresh — auto's
		// trial included — and collects the builds' garbage before
		// timing, so auto's plan meets the same conditions as the
		// explicit ones.
		names := []string{"auto", "serial", "chunked", "sorted"}
		runs := make([]func(), len(names))
		plans := make([]*backend.Plan[int64], len(names))
		for i, name := range names {
			p, err := open(name).Plan(core.AddInt64, labels, m, cfg)
			check(err)
			plans[i] = p
			if name == "auto" {
				pick := core.AutoPlanChoice(n, m, cfg)
				if tr, ok := p.Trial(); ok {
					pick = tr.Pick
				}
				picks[pick]++
			}
			runs[i] = func() { _, err := p.Run(values); check(err) }
		}
		runtime.GC()
		for i, best := range interleaved(runs) {
			planned[names[i]] = append(planned[names[i]], best)
		}
		for _, p := range plans {
			p.Close()
		}
		names = names[:3]
		for i, name := range names {
			be := open(name)
			runs[i] = func() { _, err := be.Compute(core.AddInt64, values, labels, m, cfg); check(err) }
		}
		runtime.GC()
		for i, best := range interleaved(runs[:3]) {
			oneshot[names[i]] = append(oneshot[names[i]], best)
		}
	}
	c := RegretCell{
		N: n, M: m, Picks: picks,
		Planned:     spreads(planned),
		OneShot:     spreads(oneshot),
		OneShotPick: core.AutoChoice(n, m, cfg),
	}
	c.PlannedRegret = regret(c.Planned)
	c.OneShotRegret = regret(c.OneShot)
	return c
}

// interleaved runs each of fs once to warm up, then rounds of one call
// each — rotating which goes first — for as many rounds as fit
// regretSpan (3 to 200), and returns each one's fastest call in ns.
// The contenders of one sample thus share the host's conditions, and
// taking the fastest drops interference, which only ever adds time.
func interleaved(fs []func()) []float64 {
	t0 := time.Now()
	for _, f := range fs {
		f()
	}
	rounds := min(max(int(regretSpan/max(time.Since(t0), time.Microsecond)), 3), 200)
	best := make([]time.Duration, len(fs))
	for i := range best {
		best[i] = 1<<63 - 1
	}
	for r := range rounds {
		for j := range fs {
			i := (j + r) % len(fs)
			t := time.Now()
			fs[i]()
			best[i] = min(best[i], time.Since(t))
		}
	}
	out := make([]float64, len(fs))
	for i, b := range best {
		out[i] = float64(b.Nanoseconds())
	}
	return out
}

// regret is auto's median over the faster of serial's and chunked's.
func regret(s map[string]Spread) float64 {
	return s["auto"].MedianNs / min(s["serial"].MedianNs, s["chunked"].MedianNs)
}

func spreads(samples map[string][]float64) map[string]Spread {
	out := make(map[string]Spread, len(samples))
	for name, xs := range samples {
		slices.Sort(xs)
		q := func(f float64) float64 { return xs[int(f*float64(len(xs)-1)+0.5)] }
		out[name] = Spread{MedianNs: q(0.5), IQRNs: q(0.75) - q(0.25)}
	}
	return out
}
