package main

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"time"

	"multiprefix"
	"multiprefix/internal/core"
)

// lib-state-16k: multiprefix.NewPlan("sorted", ...) (the updatable-plan
// form) at n=2^14, m=256; Bind once, then transactions of txPairs x
// (Update, QueryPrefix) plus one ReduceLabel, from one goroutine.
//
// Why: it is the same Plan layer used for writes beside reads, where the
// Fenwick tier and the plan lock do the work and the engine none, so a
// Plan change that speeds Run but slows updates shows here, and an
// engine change leaves it flat. The plan's state at n=2^14 stays in a
// core's L2, so the stream depends less on what other guests of a
// shared host do with the L3: over eight 10 s runs alternated with
// n=2^16 ones on a 2-vCPU Xeon guest, the IQR of the per-run p50 was
// 4.3% of its median against 14.7% at n=2^16 (and the spread grows
// again at n=2^20).
//
// Layer split (traced run): backend Update, QueryPrefix and ReduceLabel
// spans inside each transaction's span, and the plan's IncStats.
const (
	stateN      = 1 << 14
	stateM      = 256
	txPairs     = 64
	txPool      = 4096
	txSpans     = 2*txPairs + 2
	stateValMax = 1000
	// stateMaxRate bounds the transactions a second the end-to-end
	// phase records, about twice the rate checked transactions reach on
	// a 2-CPU Xeon host; a phase that fills its buffer ends early.
	stateMaxRate = 200_000
)

type pointTx struct {
	upd [txPairs]struct {
		i, j int32 // update index, query index
		v    int64
	}
	c int32 // label reduced at the end
}

type stateInputs struct {
	labels  []int
	init    []int64
	members [][]int32 // each label's element indices, ascending
	tx      []pointTx
}

func genState(seed uint64) *stateInputs {
	rng := rand.New(rand.NewPCG(seed, 3))
	in := &stateInputs{labels: make([]int, stateN), init: make([]int64, stateN), members: make([][]int32, stateM), tx: make([]pointTx, txPool)}
	for i := range in.labels {
		in.labels[i] = rng.IntN(stateM)
		in.init[i] = rng.Int64N(2*stateValMax+1) - stateValMax
		in.members[in.labels[i]] = append(in.members[in.labels[i]], int32(i))
	}
	for k := range in.tx {
		tx := &in.tx[k]
		for p := range tx.upd {
			tx.upd[p].i = int32(rng.IntN(stateN))
			tx.upd[p].j = int32(rng.IntN(stateN))
			tx.upd[p].v = rng.Int64N(2*stateValMax+1) - stateValMax
		}
		tx.c = int32(rng.IntN(stateM))
	}
	return in
}

// shadow is the oracle: the resident values the plan should hold,
// answering queries by scanning the label's elements.
type shadow struct {
	in   *stateInputs
	vals []int64
}

func newShadow(in *stateInputs) *shadow {
	return &shadow{in: in, vals: append([]int64(nil), in.init...)}
}

func (s *shadow) prefix(j int32) int64 {
	var sum int64
	for _, e := range s.in.members[s.in.labels[j]] {
		if e >= j {
			break
		}
		sum += s.vals[e]
	}
	return sum
}

func (s *shadow) reduce(c int32) int64 {
	var sum int64
	for _, e := range s.in.members[c] {
		sum += s.vals[e]
	}
	return sum
}

// check applies tx to the shadow and reports whether got holds its
// answers: one per (Update, QueryPrefix) pair, then the reduction.
func (s *shadow) check(tx *pointTx, got *[txPairs + 1]int64) bool {
	ok := true
	for p, u := range tx.upd {
		s.vals[u.i] = u.v
		ok = ok && got[p] == s.prefix(u.j)
	}
	return ok && got[txPairs] == s.reduce(tx.c)
}

// runTx executes one transaction, recording each call as a span under
// root when l is set.
func runTx(p *multiprefix.Plan[int64], tx *pointTx, got *[txPairs + 1]int64, l *spanLog, root, op int32) error {
	for k, u := range tx.upd {
		var s int32
		if l != nil {
			s = l.begin("backend.Update", root, op)
		}
		err := p.Update(int(u.i), u.v)
		if l != nil {
			l.end(s)
		}
		if err != nil {
			return err
		}
		if l != nil {
			s = l.begin("backend.QueryPrefix", root, op)
		}
		got[k], err = p.QueryPrefix(int(u.j))
		if l != nil {
			l.end(s)
		}
		if err != nil {
			return err
		}
	}
	var s int32
	if l != nil {
		s = l.begin("backend.ReduceLabel", root, op)
	}
	var err error
	got[txPairs], err = p.ReduceLabel(int(tx.c))
	if l != nil {
		l.end(s)
	}
	return err
}

// stateSetup is one cold set-up in this process: the first library
// call to a verified point query and reduction on the bound plan.
func stateSetup(in *stateInputs) (*multiprefix.Plan[int64], calibSample, error) {
	sh := newShadow(in)
	runtime.GC() // as in planSetup
	t0 := time.Now()
	cal := core.DefaultCalibration()
	t1 := time.Now()
	p, err := multiprefix.NewPlan("sorted", multiprefix.AddInt64, in.labels, stateM, multiprefix.Config{})
	if err != nil {
		return nil, calibSample{}, err
	}
	fail := func(err error) (*multiprefix.Plan[int64], calibSample, error) {
		p.Close()
		return nil, calibSample{}, err
	}
	if err := p.Bind(in.init); err != nil {
		return fail(err)
	}
	j, c := in.tx[0].upd[0].j, in.tx[0].c
	q, err := p.QueryPrefix(int(j))
	if err != nil {
		return fail(err)
	}
	red, err := p.ReduceLabel(int(c))
	t2 := time.Now()
	if err != nil {
		return fail(err)
	}
	if q != sh.prefix(j) || red != sh.reduce(c) {
		return fail(errWrong)
	}
	return p, newCalibSample(t2.Sub(t0), t1.Sub(t0), cal), nil
}

func stateSetupChild(seed uint64) (calibSample, error) {
	p, s, err := stateSetup(genState(seed))
	if err == nil {
		p.Close()
	}
	return s, err
}

// checkBatch is how many transactions run back to back before the
// shadow checks their recorded answers: the oracle's scans stay out of
// the caches between the plan's own calls, as they would be for a
// caller that is not checking.
const checkBatch = 256

// stateLoop runs transactions for dur, starting at pool entry *next,
// and checks every answer against the shadow outside the timed spans;
// it appends the samples to ops[:0] and, given a buffer, stops when it
// is full. With a span log it records every call and stops early when
// the log is full. Given batches, it appends the process CPU time of
// each run of transactions between two checks.
func stateLoop(p *multiprefix.Plan[int64], in *stateInputs, sh *shadow, next *int, dur time.Duration, l *spanLog, ops []opSample, batches *[]cpuBatch) ([]opSample, tally) {
	bounded := ops != nil
	ops = ops[:0]
	var t tally
	var got [checkBatch][txPairs + 1]int64
	first, pending := *next, 0 // pool index and count of unchecked transactions
	var cpu0 float64           // process CPU seconds at the batch's start
	check := func() {
		var cpu float64
		if batches != nil {
			cpu = selfCPUSeconds() - cpu0
		}
		ok := pending
		for k := 0; k < pending; k++ {
			if !sh.check(&in.tx[(first+k)%txPool], &got[k]) {
				t.failed++
				t.wrong++
				ok--
				ops[len(ops)-pending+k].lat = failedLat
			}
		}
		if batches != nil && pending > 0 {
			*batches = append(*batches, cpuBatch{end: ops[len(ops)-1].end, ok: ok, cpuS: cpu})
		}
		first, pending = *next, 0
		if batches != nil {
			cpu0 = selfCPUSeconds()
		}
	}
	if batches != nil {
		cpu0 = selfCPUSeconds()
	}
	start := time.Now()
	for time.Since(start) < dur && (l == nil || !l.full(txSpans)) && (!bounded || len(ops) < cap(ops)) {
		tx := &in.tx[*next%txPool]
		op := int32(*next)
		var root int32
		t0 := time.Now()
		if l != nil {
			root = l.begin("bench.tx", -1, op)
		}
		err := runTx(p, tx, &got[pending], l, root, op)
		if l != nil {
			l.end(root)
		}
		t1 := time.Now()
		t.attempted++
		if err != nil {
			// The plan and the shadow may disagree from here on.
			check()
			t.failed++
			ops = append(ops, opSample{end: int64(t1.Sub(start)), lat: failedLat})
			*next++
			break
		}
		ops = append(ops, opSample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0))})
		*next++
		if pending++; pending == checkBatch {
			check()
		}
	}
	check()
	return ops, t
}

func stateE2E(r *run) error {
	in := genState(r.seed)
	p, s0, err := stateSetup(in)
	if err != nil {
		return err
	}
	defer p.Close()
	samples, err := r.setupChildren(s0)
	if err != nil {
		return err
	}
	sh := newShadow(in)
	next := 0
	// Sample buffers with room for stateMaxRate transactions a second,
	// touched now, so the process's peak resident set depends neither on
	// the transaction rate nor on when the collector runs. The set-up's
	// garbage (the calibration's 32 MiB of probe buffers among it) is
	// returned to the OS first, so that the buffers never reuse a
	// varying part of it.
	debug.FreeOSMemory()
	buf := make([]opSample, (r.seconds+1)*stateMaxRate)
	batches := make([]cpuBatch, (r.seconds+1)*stateMaxRate/checkBatch+1)
	clear(buf)
	clear(batches)
	buf, batches = buf[:0], batches[:0]
	buf, wt := stateLoop(p, in, sh, &next, warmup, nil, buf, nil)
	r.t.add(wt)
	ops, t := stateLoop(p, in, sh, &next, r.dur(), nil, buf, &batches)
	r.t.add(t)
	r.t.attempted += len(samples)
	rss := peakRSSMB("self") // before the figures below allocate
	wall, p50, p90 := windowFigures(ops, r.seconds, true)
	r.e2e(ops, cpuWindows(batches, r.seconds), p50, p90, setupTimes(samples), rss)
	r.info("wall-clock throughput (operations over the time spent inside them, steal included): median %.6g 1/s over %d windows",
		median(wall), len(wall))
	return nil
}

// stateLayers is the lib-state part of a traced run.
func stateLayers(r *run, budget time.Duration) (map[string][]*spanLog, error) {
	in := genState(r.seed)
	t0 := time.Now()
	p, err := multiprefix.NewPlan("sorted", multiprefix.AddInt64, in.labels, stateM, multiprefix.Config{})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	r.layer("backend.plan_build_ms."+stateName, time.Since(t0).Seconds()*1e3, "ms")
	if err := p.Bind(in.init); err != nil {
		return nil, err
	}
	sh := newShadow(in)
	next := 0
	_, wt := stateLoop(p, in, sh, &next, warmup, nil, nil, nil)
	r.t.add(wt)
	untraced, ut := stateLoop(p, in, sh, &next, budget/2, nil, nil, nil)
	r.t.add(ut)
	l := newSpanLog(time.Now(), 1<<18)
	traced, tt := stateLoop(p, in, sh, &next, budget/2, l, nil, nil)
	r.t.add(tt)

	sp := durations(l)
	r.layer("backend.update_ns", sp.p50("backend.Update"), "ns")
	r.layer("backend.query_ns", sp.p50("backend.QueryPrefix"), "ns")
	r.layer("backend.reduce_label_ns", sp.p50("backend.ReduceLabel"), "ns")
	st := p.IncStats()
	reads := st.FenwickQueries + st.SnapshotQueries
	r.layer("backend.fenwick_read_share", float64(st.FenwickQueries)/float64(max(1, reads)), "fraction")
	r.layer("backend.reruns_per_kupd", float64(st.Reruns)*1e3/float64(max(1, st.Updates)), "count")
	r.layer("backend.update_burst", float64(st.Burst), "count")

	ul, tl := latencies(untraced), latencies(traced)
	r.info("lib-state tracing overhead: untraced tx p50 %.4f ms p90 %.4f ms over %d; traced p50 %.4f ms p90 %.4f ms over %d (%d spans per tx)",
		quantile(ul, 0.5), quantile(ul, 0.9), len(ul), quantile(tl, 0.5), quantile(tl, 0.9), len(tl), txSpans)
	r.info("lib-state split, p50 per call: Update %.0f ns, QueryPrefix %.0f ns, ReduceLabel %.0f ns; tier %s, %d Fenwick reads of %d",
		sp.p50("backend.Update"), sp.p50("backend.QueryPrefix"), sp.p50("backend.ReduceLabel"), st.Mode, st.FenwickQueries, reads)
	r.moduleInfo(stateName, moduleSelf(l))
	return map[string][]*spanLog{stateName: {l}}, nil
}
