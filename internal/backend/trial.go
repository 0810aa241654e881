package backend

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"multiprefix/internal/core"
)

// This file is the auto plan's choice: a plan evaluates many vectors
// against one label vector, so it can afford to measure. At build time
// an auto plan with no explicit Config.AutoCal, more than one worker,
// m ≤ n and a live context builds a serial and a chunked candidate
// through the registry, warm-runs each on its own labels and keeps the
// faster — FFTW's "measure" planner, and Träff's per-shape choice of
// MPI_Exscan variants by measurement. Any other auto plan applies the
// one-shot rule (core.AutoChoice).

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
var trialEngines = [...]string{"serial", "chunked"}

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

// AutoTrial is the record of an auto plan's build-time trial.
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

// Trial reports the plan's build-time trial record, and false when the
// plan ran none (every non-auto plan, and auto plans that applied the
// rule, a trial stopped by its budget or its context included). The
// record is fixed at build time.
func (p *Plan[T]) Trial() (AutoTrial, bool) {
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

// trialPlan builds an auto plan by trial. The candidates run without
// the fault hook, so the trial consumes no injected faults; the caller's
// context is polled between runs, and when it ends the trial stops and
// the plan applies the rule, as it does when the trial would overrun
// trialBudget. Either way the plan records no trial. The winner gets
// the caller's Config back. labels must already be validated.
func trialPlan[T any](op core.Op[T], labels []int, m int, cfg core.Config) (*Plan[T], error) {
	start := time.Now()
	quiet := cfg
	quiet.FaultHook, quiet.Ctx = nil, nil
	var plans [len(trialEngines)]*Plan[T]
	build := func(i int) error {
		be, err := Open[T](trialEngines[i])
		if err == nil {
			plans[i], err = be.Plan(op, labels, m, quiet)
		}
		return err
	}
	// adopt makes candidate pick the auto plan, building it if the
	// trial stopped before it did, and closes the others.
	adopt := func(pick int, rec *AutoTrial) (*Plan[T], error) {
		var err error
		if plans[pick] == nil {
			err = build(pick)
		}
		for i, p := range plans {
			if p != nil && (i != pick || err != nil) {
				p.Close()
			}
		}
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.Pick = trialEngines[pick]
			rec.Elapsed = time.Since(start)
		}
		w := plans[pick]
		w.mu.Lock()
		w.backend, w.fallback, w.cfg, w.trial = "auto", true, cfg, rec
		w.mu.Unlock()
		return w, nil
	}
	rule := 0
	if core.AutoPlanChoice(len(labels), m, cfg) == "chunked" {
		rule = 1
	}
	stopped := func() bool { return ctxDone(cfg) != nil }

	values := make([]T, len(labels))
	core.FillIdentity(op, values)
	rec := &AutoTrial{Candidates: make([]TrialCandidate, len(plans))}
	samples := make([][]time.Duration, len(plans))
	for i, name := range trialEngines {
		if err := build(i); err != nil {
			for _, p := range plans[:i] {
				p.Close()
			}
			return nil, err
		}
		t0 := time.Now()
		rec.Candidates[i] = TrialCandidate{Engine: name, Err: trialRun(plans[i], values, nil)}
		if stopped() || (i == 0 && time.Since(t0) > trialBudget/4) {
			return adopt(rule, nil)
		}
	}
	for k := 0; k < trialPairs && (k == 0 || time.Since(start) < trialBudget); k++ {
		if stopped() {
			return adopt(rule, nil)
		}
		for j := range plans {
			i := (j + k) % len(plans)
			c := &rec.Candidates[i]
			if c.Err == nil {
				c.Err = trialRun(plans[i], values, &samples[i])
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
	return adopt(pick, rec)
}

// trialRun runs p once over values, appending the run's wall time to
// samples when it is non-nil. A panic the plan's own shields miss
// comes back as the candidate's error.
func trialRun[T any](p *Plan[T], values []T, samples *[]time.Duration) (err error) {
	defer recoverPlanPanic("plan/trial", &err)
	t0 := time.Now()
	_, err = p.Run(values)
	if samples != nil {
		*samples = append(*samples, time.Since(t0))
	}
	return err
}
