package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"
	"unsafe"

	"multiprefix"
	"multiprefix/internal/core"
	"multiprefix/internal/par"
)

// lib-plan-4m: multiprefix.NewPlan("auto", AddInt64, ...) at n=2^22,
// m=2^16; warm Plan.Run over planVectors rotating value vectors from one
// goroutine (the plan's worker team uses GOMAXPROCS workers).
//
// Why: backend, core and par do all of the work here, on a working set
// far past L2, and Auto resolves this shape the same way in every fresh
// process (n is above every calibrated serial crossover), so an engine,
// kernel, par or Auto change shows here and not on svc-prefix-64k.
//
// Layer split (traced run): backend Plan.Run spans and heap allocations
// per warm Run; core: Auto's pick and its regret against explicit
// serial, chunked, sorted and sharded plans on the same inputs, one-shot
// Compute, compulsory bytes per element against the measured stream
// bandwidth; par: one empty Team.Run round.
//
// Its end-to-end figures move with the memory bandwidth other tenants
// of a shared host leave: on a 2-CPU cloud VM ten 20 s runs spread by
// 18-26% of their median (p90 the most), more than any other workload.
// BENCHMARK.json therefore does not gate it; --set runs it, and every
// traced run measures its layers.
const (
	planN       = 1 << 22
	planM       = 1 << 16
	planVectors = 2
)

type planInputs struct {
	labels   []int
	values   [][]int64
	refMulti [][]int64
	refRed   [][]int64
}

// genPlan makes the labels and the first vecs value vectors with their
// serial reference results.
func genPlan(seed uint64, vecs int) (*planInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 2))
	in := &planInputs{labels: make([]int, planN)}
	for i := range in.labels {
		in.labels[i] = rng.IntN(planM)
	}
	for k := 0; k < vecs; k++ {
		v := make([]int64, planN)
		for i := range v {
			v[i] = rng.Int64N(2001) - 1000
		}
		ref, err := core.Serial(core.AddInt64, v, in.labels, planM)
		if err != nil {
			return nil, err
		}
		in.values = append(in.values, v)
		in.refMulti = append(in.refMulti, ref.Multi)
		in.refRed = append(in.refRed, ref.Reductions)
	}
	return in, nil
}

func (in *planInputs) check(res core.Result[int64], k int) bool {
	return bytes.Equal(asBytes(res.Multi), asBytes(in.refMulti[k])) && bytes.Equal(asBytes(res.Reductions), asBytes(in.refRed[k]))
}

// asBytes views an int64 slice as its bytes, so comparing 4M results
// costs a memory compare rather than an element loop.
func asBytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// planSetup is one cold set-up in this process: the first library call
// (the calibration Auto resolves against) to a verified answer from the
// workload's plan.
func planSetup(in *planInputs) (*multiprefix.Plan[int64], calibSample, error) {
	// Start from a collected heap, so the set-up's garbage and the
	// process's peak resident set do not depend on when the collector
	// last ran during input generation.
	runtime.GC()
	t0 := time.Now()
	cal := core.DefaultCalibration()
	t1 := time.Now()
	p, err := multiprefix.NewPlan("auto", multiprefix.AddInt64, in.labels, planM, multiprefix.Config{})
	if err != nil {
		return nil, calibSample{}, err
	}
	res, err := p.Run(in.values[0])
	t2 := time.Now()
	if err != nil {
		p.Close()
		return nil, calibSample{}, err
	}
	if !in.check(res, 0) {
		p.Close()
		return nil, calibSample{}, errWrong
	}
	return p, newCalibSample(t2.Sub(t0), t1.Sub(t0), cal), nil
}

func planSetupChild(seed uint64) (calibSample, error) {
	in, err := genPlan(seed, 1)
	if err != nil {
		return calibSample{}, err
	}
	p, s, err := planSetup(in)
	if err == nil {
		p.Close()
	}
	return s, err
}

// planLoop runs warm Plan.Run calls for dur, checking each answer after
// its timed span. With a span log it records each Run as a span and
// stops early when the log is full.
func planLoop(p *multiprefix.Plan[int64], in *planInputs, dur time.Duration, l *spanLog) ([]opSample, tally) {
	var ops []opSample
	var t tally
	start := time.Now()
	for k := 0; time.Since(start) < dur && (l == nil || !l.full(1)); k++ {
		v := k % len(in.values)
		var s int32
		t0 := time.Now()
		if l != nil {
			s = l.begin("backend.Plan.Run", -1, int32(k))
		}
		res, err := p.Run(in.values[v])
		if l != nil {
			l.end(s)
		}
		t1 := time.Now()
		t.attempted++
		lat := int64(t1.Sub(t0))
		switch {
		case err != nil:
			t.failed++
			lat = failedLat
		case !in.check(res, v):
			t.failed++
			t.wrong++
			lat = failedLat
		}
		ops = append(ops, opSample{end: int64(t1.Sub(start)), lat: lat})
	}
	return ops, t
}

func planE2E(r *run) error {
	in, err := genPlan(r.seed, planVectors)
	if err != nil {
		return err
	}
	p, s0, err := planSetup(in)
	if err != nil {
		return err
	}
	defer p.Close()
	samples, err := r.setupChildren(s0)
	if err != nil {
		return err
	}
	_, wt := planLoop(p, in, warmup, nil)
	r.t.add(wt)
	ops, t := planLoop(p, in, r.dur(), nil)
	r.t.add(t)
	r.t.attempted += len(samples)
	rss := peakRSSMB("self") // before the figures below allocate
	tput, p50, p90 := windowFigures(ops, r.seconds, true)
	r.e2e(ops, tput, p50, p90, setupTimes(samples), rss)
	return nil
}

// timePair alternates warm runs of the auto plan and p, reps of each
// after one unrecorded pair, records each as a span named for its plan,
// checks every answer, and returns the medians of both plans' correct
// runs in milliseconds. Alternating keeps a drift in the host's speed
// out of their ratio.
func timePair(auto, p *multiprefix.Plan[int64], name string, in *planInputs, reps int, t *tally, l *spanLog) (autoMs, ms float64) {
	var d [2][]float64
	for k := -1; k < reps; k++ {
		v := max(k, 0) % len(in.values)
		for i, pl := range []*multiprefix.Plan[int64]{auto, p} {
			s := l.begin([]string{"backend.Plan.Run.auto", "backend.Plan.Run." + name}[i], -1, int32(k))
			res, err := pl.Run(in.values[v])
			l.end(s)
			t.attempted++
			ok := err == nil && in.check(res, v)
			if !ok {
				t.failed++
				if err == nil {
					t.wrong++
				}
			}
			if k < 0 || !ok {
				l.spans = l.spans[:s]
				continue
			}
			d[i] = append(d[i], float64(l.spans[s].dur())/1e6)
		}
	}
	return median(d[0]), median(d[1])
}

// planLayers is the lib-plan part of a traced run.
func planLayers(r *run, budget time.Duration) (map[string][]*spanLog, error) {
	in, err := genPlan(r.seed, planVectors)
	if err != nil {
		return nil, err
	}
	var t tally
	defer func() { r.t.add(t) }()

	t0 := time.Now()
	ap, err := multiprefix.NewPlan("auto", multiprefix.AddInt64, in.labels, planM, multiprefix.Config{})
	if err != nil {
		return nil, err
	}
	defer ap.Close()
	r.layer("backend.plan_build_ms."+planName, time.Since(t0).Seconds()*1e3, "ms")

	_, wt := planLoop(ap, in, warmup, nil)
	t.add(wt)
	untraced, ut := planLoop(ap, in, budget/2, nil)
	t.add(ut)
	l := newSpanLog(time.Now(), 1<<16)
	traced, tt := planLoop(ap, in, budget/2, l)
	t.add(tt)
	sp := durations(l)
	runMs := sp.p50("backend.Plan.Run") / 1e6
	r.layer("backend.run_ms", runMs, "ms")

	// Heap allocations per warm Run.
	const allocRuns = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < allocRuns; k++ {
		if _, err := ap.Run(in.values[k%len(in.values)]); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	r.layer("backend.run_allocs", float64(m1.Mallocs-m0.Mallocs)/allocRuns, "count")

	// Auto's regret: its Run against explicit plans on the same inputs,
	// each explicit plan built, timed against the auto plan and closed
	// in turn, so one is resident beside the auto plan at a time. Each is
	// timed after a collection, so no collector cycle set off by the
	// previous plan's allocations runs beside its timed runs.
	const reps = 7
	regret := 0.0
	for _, name := range []string{"serial", "chunked", "sorted", "sharded"} {
		p, err := multiprefix.NewPlan(name, multiprefix.AddInt64, in.labels, planM, multiprefix.Config{})
		if err != nil {
			return nil, err
		}
		runtime.GC()
		autoMs, ms := timePair(ap, p, name, in, reps, &t, l)
		p.Close()
		r.layer("core.run_ms."+name, ms, "ms")
		regret = max(regret, autoMs/ms)
	}
	r.layer("core.auto_regret", regret, "ratio")
	autoMs := durations(l).p50("backend.Plan.Run.auto") / 1e6

	// Compulsory traffic of one Run: labels, values and multi each once,
	// plus the reductions, over the measured stream bandwidth.
	bytesPerElem := float64(8+8+8) + float64(planM*8)/planN
	r.layer("core.bytes_per_elem", bytesPerElem, "B")
	if probe := core.DefaultCalibration().Probe; probe != nil && probe.StreamBps > 0 {
		r.layer("core.bw_share", bytesPerElem*planN/(autoMs/1e3)/probe.StreamBps, "fraction")
	} else {
		r.layer("core.bw_share", 0, "fraction")
	}

	for k := 0; k < 5; k++ {
		s := l.begin("core.Compute", -1, int32(k))
		res, err := multiprefix.Compute(multiprefix.AddInt64, in.values[0], in.labels, planM)
		l.end(s)
		t.attempted++
		if err != nil || !in.check(res, 0) {
			t.failed++
			if err == nil {
				t.wrong++
			}
			l.spans = l.spans[:s]
		}
	}

	// One team round with an empty body, after 100 unrecorded ones.
	team := par.NewTeam(runtime.GOMAXPROCS(0))
	empty := func(int, *par.Barrier) {}
	for k := 0; k < 2000; k++ {
		s := l.begin("par.Team.Run", -1, int32(k))
		team.Run(empty)
		l.end(s)
		if k < 100 {
			l.spans = l.spans[:s]
		}
	}
	team.Close()
	sp = durations(l)
	r.layer("core.oneshot_ms", sp.p50("core.Compute")/1e6, "ms")
	roundUs := sp.p50("par.Team.Run") / 1e3
	r.layer("par.team_round_us", roundUs, "us")

	ul, tl := latencies(untraced), latencies(traced)
	r.info("lib-plan tracing overhead: untraced Run p50 %.3f ms p90 %.3f ms over %d; traced p50 %.3f ms p90 %.3f ms over %d",
		quantile(ul, 0.5), quantile(ul, 0.9), len(ul), quantile(tl, 0.5), quantile(tl, 0.9), len(tl))
	pick := core.AutoPlanChoice(planN, planM, core.Config{})
	split := fmt.Sprintf("lib-plan split, p50 per Run: backend.Plan.Run %.3f ms on the %s engine (auto regret %.3f against the fastest explicit plan)", runMs, pick, regret)
	if pick == "chunked" {
		split += fmt.Sprintf("; par, computed as 2 team rounds x %.1f us: %.4f ms", roundUs, 2*roundUs/1e3)
	}
	r.info("%s", split)
	return map[string][]*spanLog{planName: {l}}, nil
}
