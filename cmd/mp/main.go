// Command mp computes a multiprefix operation over values and labels
// read from stdin: one "label value" pair per line (labels 0-based
// integers, values int64). It prints the per-element multiprefix sums
// and the per-label reductions — a direct CLI rendering of the paper's
// Figure 1.
//
// Usage:
//
//	echo "1 1
//	1 2
//	2 1
//	1 2" | mp [-op add|mul|max|min] [-backend auto|serial|...] [-reduce]
//
// The -backend flag (alias: -engine) accepts any name in the unified
// backend registry, including the sorted segmented-scan engine
// ("sorted") and the simulated machines ("vector", "pram").
//
// -update "i=v,i=v" switches to the stateful plan path: the stdin
// vector is bound as resident plan state, each point update is applied
// in order (O(log n) per point for invertible fast ops via the plan's
// Fenwick accumulators, full re-evaluation otherwise), and the final
// maintained multiprefix is printed. With -v the plan's maintenance
// mode and resulting version are reported on stderr, and an auto
// plan's build-time trial record (each candidate's median run and the
// pick) as "mp: auto trial serial=… chunked=… pick=… elapsed=…" —
// the line `make trial-smoke` checks. Naming the engine with -backend
// pins the choice.
//
// -shards N routes the computation through the sharded backend's plan
// path with N shards and reports the carry exchange on stderr in
// stable "key values" form: the shard count, the ⌈log₂N⌉ round bound
// and the rounds the run actually executed. `make shard-smoke` asserts
// measured_rounds == ⌈log₂N⌉ through this path.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"multiprefix"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mp: ")
	opName := flag.String("op", "add", "operator: add, mul, max, min, or, and, xor")
	known := strings.Join(multiprefix.Backends(), ", ")
	backendName := flag.String("backend", "auto", "backend: "+known)
	flag.StringVar(backendName, "engine", "auto", "alias for -backend")
	reduceOnly := flag.Bool("reduce", false, "print only the per-label reductions (multireduce)")
	verbose := flag.Bool("v", false, "report the engine the auto selector picked")
	update := flag.String("update", "", `point updates "i=v,i=v" applied to the bound plan before printing`)
	shards := flag.Int("shards", 0, "run the sharded backend with N shards and report the carry-exchange rounds")
	flag.Parse()

	// Interrupt (Ctrl-C) cancels a run in progress: the engines notice
	// at their next barrier/chunk boundary and return context.Canceled
	// instead of leaving a large computation spinning. Registered before
	// the input is read so an interrupt during parsing also cancels.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ops := map[string]multiprefix.Op[int64]{
		"add": multiprefix.AddInt64,
		"mul": multiprefix.MulInt64,
		"max": multiprefix.MaxInt64,
		"min": multiprefix.MinInt64,
		"or":  multiprefix.OrInt64,
		"and": multiprefix.AndInt64,
		"xor": multiprefix.XorInt64,
	}
	op, ok := ops[*opName]
	if !ok {
		log.Fatalf("unknown operator %q", *opName)
	}

	var values []int64
	var labels []int
	m := 0
	sc := bufio.NewScanner(os.Stdin)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if len(text) == 0 {
			continue
		}
		var l int
		var v int64
		if _, err := fmt.Sscan(text, &l, &v); err != nil {
			log.Fatalf("line %d: want 'label value', got %q: %v", line, text, err)
		}
		if l < 0 {
			log.Fatalf("line %d: negative label %d", line, l)
		}
		labels = append(labels, l)
		values = append(values, v)
		if l+1 > m {
			m = l + 1
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	be, err := multiprefix.OpenBackend[int64](*backendName)
	if err != nil {
		var unknown *multiprefix.UnknownBackendError
		if errors.As(err, &unknown) {
			log.Fatalf("unknown backend %q; known backends: %s",
				unknown.Name, strings.Join(unknown.Known, ", "))
		}
		log.Fatal(err)
	}
	cfg := multiprefix.Config{Ctx: ctx}
	if *update != "" {
		runStateful(be, op, values, labels, m, cfg, *update, *verbose, *reduceOnly)
		return
	}

	if *shards > 0 {
		runSharded(op, values, labels, m, cfg, *shards, *reduceOnly)
		return
	}

	if *verbose && be.Name() == "auto" {
		fmt.Fprintf(os.Stderr, "mp: auto picked %s for n=%d m=%d\n",
			multiprefix.AutoChoice(len(values), m, cfg), len(values), m)
	}
	res, err := be.Compute(op, values, labels, m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	printResult(values, labels, res.Multi, res.Reductions, *reduceOnly)
}

// printResult writes the standard output format: one "i label value
// multiprefix" line per element (unless reduceOnly) followed by the
// per-label reductions.
func printResult(values []int64, labels []int, multi, red []int64, reduceOnly bool) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if !reduceOnly {
		fmt.Fprintln(w, "# i label value multiprefix")
		for i := range values {
			fmt.Fprintf(w, "%d %d %d %d\n", i, labels[i], values[i], multi[i])
		}
	}
	fmt.Fprintln(w, "# label reduction")
	for k, r := range red {
		fmt.Fprintf(w, "%d %d\n", k, r)
	}
}

// runSharded serves the -shards path: compute through the sharded
// backend's plan with the requested shard count, print the usual
// result on stdout, and report the carry exchange on stderr — rounds
// (the ⌈log₂S⌉ bound) and measured_rounds (what the run executed;
// shard-smoke asserts they match).
func runSharded(op multiprefix.Op[int64], values []int64, labels []int, m int, cfg multiprefix.Config, shards int, reduceOnly bool) {
	cfg.Shards = shards
	plan, err := multiprefix.NewPlan("sharded", op, labels, m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer plan.Close()
	res, err := plan.Run(values)
	if err != nil {
		log.Fatal(err)
	}
	printResult(values, labels, res.Multi, res.Reductions, reduceOnly)

	st, ok := plan.ShardStats()
	if !ok {
		log.Fatal("sharded plan reported no shard stats")
	}
	e := bufio.NewWriter(os.Stderr)
	defer e.Flush()
	fmt.Fprintf(e, "mp: shards %d\n", st.Shards)
	fmt.Fprintf(e, "mp: rounds %d\n", st.Rounds)
	fmt.Fprintf(e, "mp: measured_rounds %d\n", st.MeasuredRounds)
}

// runStateful serves the -update path: build a plan, bind the stdin
// vector as its resident state, apply each "i=v" point update in
// order, and print the maintained multiprefix and reductions from a
// snapshot — exercising the same incremental machinery the service's
// /v1/update + /v1/query endpoints run on.
func runStateful(be multiprefix.Backend[int64], op multiprefix.Op[int64], values []int64, labels []int, m int, cfg multiprefix.Config, spec string, verbose, reduceOnly bool) {
	plan, err := be.Plan(op, labels, m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer plan.Close()
	if verbose && be.Name() == "auto" {
		if tr, ok := plan.Trial(); ok {
			fmt.Fprintf(os.Stderr, "mp: auto trial %s\n", tr)
		} else {
			fmt.Fprintf(os.Stderr, "mp: auto picked %s for n=%d m=%d (no trial)\n",
				multiprefix.AutoChoice(len(values), m, cfg), len(values), m)
		}
	}
	if err := plan.Bind(values); err != nil {
		log.Fatal(err)
	}
	applied := 0
	for _, part := range strings.Split(spec, ",") {
		is, vs, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			log.Fatalf("-update: %q is not i=v", part)
		}
		i, err := strconv.Atoi(strings.TrimSpace(is))
		if err != nil {
			log.Fatalf("-update: index %q: %v", is, err)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(vs), 10, 64)
		if err != nil {
			log.Fatalf("-update: value %q: %v", vs, err)
		}
		if err := plan.Update(i, v); err != nil {
			log.Fatalf("-update %s: %v", part, err)
		}
		values[i] = v
		applied++
	}
	multi := make([]int64, len(values))
	red := make([]int64, m)
	version, err := plan.Snapshot(multi, red)
	if err != nil {
		log.Fatal(err)
	}
	if verbose {
		st := plan.IncStats()
		fmt.Fprintf(os.Stderr, "mp: plan mode=%s version=%d applied=%d fenwick_updates=%d fenwick_queries=%d reruns=%d\n",
			st.Mode, version, applied, st.FenwickUpdates, st.FenwickQueries, st.Reruns)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if !reduceOnly {
		fmt.Fprintln(w, "# i label value multiprefix")
		for i := range values {
			fmt.Fprintf(w, "%d %d %d %d\n", i, labels[i], values[i], multi[i])
		}
	}
	fmt.Fprintln(w, "# label reduction")
	for k, r := range red {
		fmt.Fprintf(w, "%d %d\n", k, r)
	}
}
