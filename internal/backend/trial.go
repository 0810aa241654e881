package backend

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"multiprefix/internal/core"
)

// This file is the auto plan's choice: a plan evaluates many vectors
// against one label vector, so it can afford to measure. An auto plan
// with no explicit Config.AutoCal, more than one worker, m ≤ n and a
// live context times a serial and a chunked candidate on its own labels
// and keeps the faster — FFTW's "measure" planner, and Träff's
// per-shape choice of MPI_Exscan variants by measurement. A library
// plan (Open("auto").Plan) runs the trial at build time. A RulePlan
// plan starts on the one-shot rule's engine (core.AutoChoice) and runs
// the same trial later, when Promote is called on the live plan, and
// switches engine in place if the other candidate wins. Any other auto
// plan applies the rule.

// Trial parameters: one warm-up run per candidate, then up to
// trialPairs timed pairs alternating which candidate runs first.
// Chunked must beat serial's median by trialMargin: a near tie stays
// on the engine that needs no worker team. trialBudget bounds the
// trial's wall time whatever n is: pairs stop once the trial has run
// that long (after one pair at least), and a plan whose serial warm-up
// alone takes a quarter of it — the least a trial runs is four such
// runs — skips the rest and applies the rule.
const (
	trialPairs  = 5
	trialMargin = 0.9
	trialBudget = 20 * time.Millisecond
)

// trialEngines are the candidates, serial first: it is the pick when
// both fail.
var trialEngines = [...]struct {
	name string
	k    kind
}{{"serial", kindSerial}, {"chunked", kindChunked}}

// TrialCandidate is one engine the trial timed.
type TrialCandidate struct {
	// Engine is the candidate's registry name.
	Engine string
	// Median is the median of its timed warm runs; 0 when Err is set.
	Median time.Duration
	// Err is the first error the candidate returned (a recovered panic
	// included); a candidate that fails loses.
	Err error
}

// AutoTrial is the record of an auto plan's trial.
type AutoTrial struct {
	Candidates []TrialCandidate
	// Pick is the engine the plan runs.
	Pick string
	// Elapsed is the trial's wall time, the candidates' builds included.
	Elapsed time.Duration
}

// String renders the record on one line in stable "key=value" form,
// e.g. "serial=131µs chunked=182µs pick=serial elapsed=2.1ms".
func (t AutoTrial) String() string {
	var b strings.Builder
	for _, c := range t.Candidates {
		if c.Err != nil {
			fmt.Fprintf(&b, "%s=failed ", c.Engine)
		} else {
			fmt.Fprintf(&b, "%s=%v ", c.Engine, c.Median)
		}
	}
	fmt.Fprintf(&b, "pick=%s elapsed=%v", t.Pick, t.Elapsed.Round(time.Microsecond))
	return b.String()
}

// Trial reports the plan's trial record, and false when the plan ran
// none (every non-auto plan, and auto plans that applied the rule, a
// trial stopped by its budget or its context included). A library auto
// plan's record is fixed at build time. A RulePlan plan reports false
// until a Promote call's trial runs to a pick, and that record from
// then on.
func (p *Plan[T]) Trial() (AutoTrial, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.trial == nil {
		return AutoTrial{}, false
	}
	return *p.trial, true
}

// runsTrial reports whether an auto plan over n elements and m labels
// chooses by trial under cfg. A context that has already ended gets the
// rule without a trial.
func runsTrial(n, m int, cfg core.Config) bool {
	return cfg.AutoCal == nil && m <= n && core.ChunkWorkers(cfg.Workers, n) > 1 && ctxDone(cfg) == nil
}

// trialPlan builds an auto plan by trial over a prepared label set;
// every candidate shares its one label vector, and the trial runs on
// two n-slot vectors of its own. The candidates run without the fault
// hook, so the trial consumes no injected faults; the caller's context is polled
// between runs, and when it ends the trial stops and the plan applies
// the rule, as it does when the trial would overrun trialBudget.
// Either way the plan records no trial. The winner gets the caller's
// Config back.
func trialPlan[T any](op core.Op[T], set LabelSet, cfg core.Config) (*Plan[T], error) {
	var plans [len(trialEngines)]*Plan[T]
	build := func(i int) (err error) {
		plans[i], err = newPlan(trialEngines[i].k, trialEngines[i].name, op, set, quietConfig(cfg))
		return err
	}
	n := len(set.labels)
	values, dst := make([]T, n), make([]T, n)
	rec, pick, err := timeTrial(op, values, dst, &plans, build, func() bool { return ctxDone(cfg) != nil })
	if err == nil && rec == nil {
		// Cut short: the rule's engine, built now if the trial had not.
		pick = 0
		if core.AutoPlanChoice(n, set.m, cfg) == "chunked" {
			pick = 1
		}
		if plans[pick] == nil {
			err = build(pick)
		}
	}
	for i, p := range plans {
		if p != nil && (i != pick || err != nil) {
			p.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	w := plans[pick]
	w.mu.Lock()
	w.backend, w.fallback, w.cfg, w.trial = "auto", true, cfg, rec
	w.mu.Unlock()
	return w, nil
}

// Promote runs the trial on a live auto plan that RulePlan built, once.
// It builds the candidate the plan is not running, over the plan's own
// labels, and times the two exactly as a build-time trial does; the
// plan's own runs take its lock one at a time, so traffic on the plan
// goes on between them. When the other candidate wins, the plan
// switches to it in place under its lock: the plan pointer, its labels,
// its resident values and Version() all survive. Only an integer
// element type may switch, where serial and chunked agree bit for bit,
// so a switch changes no answer. ctx is polled between runs.
//
// The trial runs on values and dst, two vectors of the plan's length
// that the caller lends it: their contents on entry do not matter, and
// no candidate writes either once Promote has returned. A live plan's
// trial runs beside traffic, so the caller can lend vectors it pools
// instead of the trial allocating two per promotion.
//
// Promote reports whether the trial ran to a pick, which Trial then
// returns, and whether the engine changed. It runs none, and the plan
// stays on its engine and records nothing, for a plan RulePlan did not
// build or that was promoted before, a floating-point element type, a
// shape the trial does not cover (one worker, m > n, an explicit
// Config.AutoCal), vectors of another length than the plan's, or a
// trial cut short by ctx or by its budget.
func (p *Plan[T]) Promote(ctx context.Context, values, dst []T) (ok, switched bool) {
	p.mu.Lock()
	eligible := p.deferred && !p.closed
	p.deferred = false
	cfg := p.cfg
	cur := 0
	if _, chunked := p.ex.(*chunkedExec[T]); chunked {
		cur = 1
	}
	p.mu.Unlock()
	cfg.Ctx = ctx
	if !eligible || !exactElem[T]() || !runsTrial(p.n, p.m, cfg) || len(values) != p.n || len(dst) != p.n {
		return false, false
	}
	var plans [len(trialEngines)]*Plan[T]
	plans[cur] = p
	set := LabelSet{labels: p.labels, m: p.m, classes: p.classes} // what newPlan reads of a set
	build := func(i int) (err error) {
		plans[i], err = newPlan(trialEngines[i].k, trialEngines[i].name, p.op, set, quietConfig(cfg))
		return err
	}
	r, pick, err := timeTrial(p.op, values, dst, &plans, build, func() bool { return ctx.Err() != nil })
	cand := plans[1-cur]
	p.mu.Lock()
	if err == nil && r != nil && !p.closed {
		if pick != cur {
			// cand was built over p's own labels, so its executor is
			// planned for p; p keeps its labels, result storage,
			// resident state and version
			p.ex, cand.ex = cand.ex, p.ex
			switched = true
		}
		p.trial, ok = r, true
	}
	p.mu.Unlock()
	if cand != nil {
		cand.Close() // after a switch it holds the engine p left
	}
	return ok, switched
}

// quietConfig is cfg for a trial candidate: no fault hook and no
// context, which the trial polls itself between runs.
func quietConfig(cfg core.Config) core.Config {
	cfg.FaultHook, cfg.Ctx = nil, nil
	return cfg
}

// exactElem reports whether T is an integer type. There every engine's
// grouping of an associative operator gives the same bits, so a live
// plan may switch engine; floating-point rounding depends on the
// grouping.
func exactElem[T any]() bool {
	switch any(*new(T)).(type) {
	case int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64:
		return true
	}
	return false
}

// timeTrial is the trial's one timing loop, over the candidates in
// trialEngines order. It builds each candidate still nil in plans
// through build, warm-runs each once, then times up to trialPairs
// pairs, alternating which candidate runs first, and picks chunked
// only when it beats serial's median by trialMargin. It returns the
// record and the pick's index into plans, or a nil record when the
// trial was cut short: stopped reported true between runs, or serial's
// warm-up alone took a quarter of trialBudget. Elapsed counts the
// builds. The candidates run on values, which it fills with the
// identity, into dst, both of the plans' length, so none keeps a result
// vector of the trial's; a build error ends the trial with it.
func timeTrial[T any](op core.Op[T], values, dst []T, plans *[len(trialEngines)]*Plan[T], build func(i int) error, stopped func() bool) (*AutoTrial, int, error) {
	start := time.Now()
	core.FillIdentity(op, values)
	rec := &AutoTrial{Candidates: make([]TrialCandidate, len(plans))}
	samples := make([][]time.Duration, len(plans))
	for i, e := range trialEngines {
		if plans[i] == nil {
			if err := build(i); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		rec.Candidates[i] = TrialCandidate{Engine: e.name, Err: trialRun(plans[i], values, dst, nil)}
		if stopped() || (i == 0 && time.Since(t0) > trialBudget/4) {
			return nil, 0, nil
		}
	}
	for k := 0; k < trialPairs && (k == 0 || time.Since(start) < trialBudget); k++ {
		if stopped() {
			return nil, 0, nil
		}
		for j := range plans {
			i := (j + k) % len(plans)
			c := &rec.Candidates[i]
			if c.Err == nil {
				c.Err = trialRun(plans[i], values, dst, &samples[i])
			}
		}
	}
	for i := range rec.Candidates {
		c := &rec.Candidates[i]
		if c.Err != nil {
			continue
		}
		slices.Sort(samples[i])
		c.Median = samples[i][len(samples[i])/2]
	}
	pick := 0
	if s, ch := rec.Candidates[0], rec.Candidates[1]; ch.Err == nil &&
		(s.Err != nil || float64(ch.Median) <= trialMargin*float64(s.Median)) {
		pick = 1
	}
	rec.Pick, rec.Elapsed = trialEngines[pick].name, time.Since(start)
	return rec, pick, nil
}

// trialRun runs p once over values as a one-vector prefix batch into
// dst, appending the run's wall time to samples when it is non-nil. It
// runs the plan's own engine with no serial fallback, so a live auto
// plan's failure counts against it as a candidate's does; a panic the
// plan's own shields miss comes back as the candidate's error.
func trialRun[T any](p *Plan[T], values, dst []T, samples *[]time.Duration) (err error) {
	defer recoverPlanPanic("plan/trial", &err)
	p.mu.Lock()
	defer p.mu.Unlock()
	dsts, srcs := p.one(dst, values)
	t0 := time.Now()
	if err = p.checkBatch(dsts, srcs, true); err == nil {
		err = p.runBatch(dsts, srcs, true)
	}
	p.clearOne()
	if samples != nil {
		*samples = append(*samples, time.Since(t0))
	}
	return err
}
