// Command perfbench is the multiprefix benchmark: three workloads, each
// putting a different layer of the program in charge, measured end to
// end, and a separate traced run that splits their operations across
// cmd/mpd, internal/server, internal/backend, internal/core and
// internal/par by timing the benchmark's own calls into those layers.
//
// Build and run it from the repository root with perfbench/run.sh, which
// builds this command and mpd from the checkout's sources:
//
//	bash perfbench/run.sh --workload svc-prefix-64k --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --set 10 --seconds 40   # every workload, seeds 1..10, with a summary
//
// The program runs as shipped: mpd with its default flags on a free
// loopback port, GOMAXPROCS and MP_AUTOCAL unset, and every run starting
// from fresh processes so set-up includes Auto's one-time calibration.
//
// With --trace 0 a run prints, per end-to-end metric, its value, median,
// quartiles and sample count, and as its last line one JSON object with
// the end-to-end metrics. Throughput and latency are medians over
// one-second windows of the measured phase, lib-state's throughput per
// second of CPU time its single caller was given, so that time the
// hypervisor of a shared host gives to other guests does not count.
// Set-up time is the median of setupSamples cold starts; ok_share is 1
// minus the share of operations that errored, were refused or answered
// wrongly. Every answer is checked against an oracle the benchmark owns,
// outside the timed spans; a wrong answer makes the command exit 1.
//
// With --trace 1 the run measures every per-layer metric instead: the
// traced workload's layers for --seconds, the other two workloads'
// layers for a short pass, so each traced run reports the whole table.
// Spans are kept in memory and written to the --out directory at the end.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"multiprefix/internal/core"
)

const (
	svcName   = "svc-prefix-64k"
	planName  = "lib-plan-4m"
	stateName = "lib-state-16k"

	// setupSamples cold starts per run; setup_s is their median.
	setupSamples = 7
	// warmup runs each workload before its measured phase.
	warmup = time.Second
	// shortPass is the budget of the workloads other than the traced one
	// in a traced run.
	shortPass = 2 * time.Second
)

var errWrong = errors.New("wrong answer")

// workload is one benchmark workload: its end-to-end run, its part of a
// traced run, and (for the library workloads) one cold set-up in a
// fresh child process.
type workload struct {
	name       string
	e2e        func(*run) error
	layers     func(*run, time.Duration) (map[string][]*spanLog, error)
	setupChild func(seed uint64) (calibSample, error)
}

var workloads = []workload{
	{name: svcName, e2e: svcE2E, layers: svcLayers},
	{name: planName, e2e: planE2E, layers: planLayers, setupChild: planSetupChild},
	{name: stateName, e2e: stateE2E, layers: stateLayers, setupChild: stateSetupChild},
}

// shapes are the workloads' problem shapes, at which Auto's picks are
// reported.
var shapes = []struct {
	name string
	n, m int
}{{svcName, svcN, svcM}, {planName, planN, planM}, {stateName, stateN, stateM}}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// calibSample is one cold set-up with the calibration it resolved: the
// set-up time, the first DefaultCalibration() call's time, its serial
// crossover, and Auto's plan pick at every workload's shape.
type calibSample struct {
	SetupS      float64           `json:"setup_s"`
	CalibrateMs float64           `json:"calibrate_ms"`
	SerialMax   int               `json:"serial_max"`
	Picks       map[string]string `json:"auto_engine"`
}

func newCalibSample(setup, calib time.Duration, cal core.AutoCalibration) calibSample {
	s := calibSample{SetupS: setup.Seconds(), CalibrateMs: calib.Seconds() * 1e3, SerialMax: cal.SerialMax, Picks: map[string]string{}}
	for _, sh := range shapes {
		s.Picks[sh.name] = core.AutoPlanChoice(sh.n, sh.m, core.Config{})
	}
	return s
}

// engineCodes numbers Auto's picks for the core.auto_engine metrics.
var engineCodes = []string{"serial", "sorted", "chunked", "sharded", "parallel"}

func engineCode(name string) float64 {
	return float64(slices.Index(engineCodes, name))
}

func setupTimes(samples []calibSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.SetupS
	}
	return out
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// record is everything a run found, written to the --out directory.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Spreads    map[string]spread `json:"spreads,omitempty"`
	Calib      []calibSample     `json:"calibration"`
	Info       []string          `json:"info"`
	Result     result            `json:"result"`
}

// run is one invocation of the benchmark.
type run struct {
	w       workload
	seed    uint64
	seconds int
	trace   int
	mpdPath string
	outDir  string
	t       tally
	rec     record
	metrics map[string]metricOut
	lines   []string
}

func (r *run) dur() time.Duration { return time.Duration(r.seconds) * time.Second }

func (r *run) info(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	r.rec.Info = append(r.rec.Info, s)
	r.lines = append(r.lines, "# "+s)
}

// put records one end-to-end metric: the median of its samples.
func (r *run) put(name string, sp spread, unit string) {
	r.metrics[name] = metricOut{Value: sp.Median, Unit: unit}
	r.rec.Spreads[name] = sp
	r.lines = append(r.lines, fmt.Sprintf("%-16s %14.6g %-9s median, q1 %-12.6g q3 %-12.6g n %d %s",
		name, sp.Median, unit, sp.Q1, sp.Q3, sp.N, sp.SampleOf))
}

// layer records one per-layer metric of a traced run.
func (r *run) layer(name string, v float64, unit string) {
	if slices.Contains(r.rec.Provenance.HostLimited, name) {
		r.info("%s is host-limited: %d CPUs", name, r.rec.Provenance.NumCPU)
	}
	r.metrics[name] = metricOut{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("%-36s %14.6g %s", name, v, unit))
}

// e2e records the six end-to-end metrics of a measured phase, given its
// per-window throughput and latency figures.
func (r *run) e2e(ops []opSample, tput, p50, p90 []float64, setups []float64, rssMB float64) {
	r.put("throughput_rps", spreadOf(tput, "one-second windows"), "1/s")
	r.put("latency_p50_ms", spreadOf(p50, "one-second windows"), "ms")
	r.put("latency_p90_ms", spreadOf(p90, "one-second windows"), "ms")
	ok := float64(r.t.attempted-r.t.failed) / float64(max(1, r.t.attempted))
	r.put("ok_share", spread{Median: ok, Q1: ok, Q3: ok, N: r.t.attempted, SampleOf: "operations"}, "fraction")
	r.put("peak_rss_mb", spread{Median: rssMB, Q1: rssMB, Q3: rssMB, N: 1, SampleOf: "VmHWM reading"}, "MB")
	r.put("setup_s", spreadOf(setups, "cold starts"), "s")
	ws := make([]string, len(tput))
	for i, v := range tput {
		ws[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	r.info("throughput per window: %s", strings.Join(ws, " "))
	lat := latencies(ops)
	if pct, v, ok := tailPercentile(lat); ok {
		r.info("tail: p%g %.4f ms (highest percentile with >=10 samples beyond it), pooled p50 %.4f ms p90 %.4f ms over %d operations",
			pct, v, quantile(lat, 0.5), quantile(lat, 0.9), len(lat))
	}
	r.info("failed_share %.6f (%d of %d operations errored, were refused or answered wrongly; %d wrong)",
		float64(r.t.failed)/float64(max(1, r.t.attempted)), r.t.failed, r.t.attempted, r.t.wrong)
}

// calibrate makes this process's first DefaultCalibration() call,
// timed, and reports Auto's picks.
func (r *run) calibrate() calibSample {
	t0 := time.Now()
	cal := core.DefaultCalibration()
	d := time.Since(t0)
	s := newCalibSample(0, d, cal)
	r.rec.Calib = append(r.rec.Calib, s)
	r.calibInfo()
	return s
}

func (r *run) calibInfo() {
	for i, s := range r.rec.Calib {
		picks := make([]string, 0, len(shapes))
		for _, sh := range shapes {
			picks = append(picks, sh.name+"="+s.Picks[sh.name])
		}
		r.info("auto[%d]: core.calibrate_ms %.1f core.serial_max %d core.auto_engine %s", i, s.CalibrateMs, s.SerialMax, strings.Join(picks, " "))
	}
}

// setupChildren adds setupSamples-1 cold set-ups, each in a fresh child
// process, to the one this process made.
func (r *run) setupChildren(first calibSample) ([]calibSample, error) {
	samples := []calibSample{first}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for i := 1; i < setupSamples; i++ {
		out, err := exec.Command(self, "--setup-child", r.w.name, "--seed", strconv.FormatUint(r.seed, 10)).Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var s calibSample
		if err := json.Unmarshal(out, &s); err != nil {
			return nil, fmt.Errorf("set-up child output: %w", err)
		}
		samples = append(samples, s)
	}
	r.rec.Calib = samples
	r.calibInfo()
	return samples, nil
}

// moduleInfo prints the median per-operation self time of each module.
func (r *run) moduleInfo(part string, mods map[string]float64) {
	names := make([]string, 0, len(mods))
	for m := range mods {
		names = append(names, m)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, m := range names {
		fmt.Fprintf(&b, " %s %.4f ms", m, mods[m]/1e6)
	}
	r.info("%s self time per operation by module (median of per-operation sums):%s", part, b.String())
}

// traced runs every workload's layers, the traced workload's for the
// full length, and writes the spans.
func traced(r *run) error {
	// First library call of the process: core.calibrate_ms.
	s := r.calibrate()
	r.layer("core.calibrate_ms", s.CalibrateMs, "ms")
	r.layer("core.serial_max", float64(s.SerialMax), "count")
	for _, sh := range shapes {
		r.layer("core.auto_engine."+sh.name, engineCode(s.Picks[sh.name]), "code")
	}
	spans := map[string][]*spanLog{}
	for _, w := range workloads {
		budget := shortPass
		if w.name == r.w.name {
			budget = r.dur()
		}
		part, err := w.layers(r, budget)
		if err != nil {
			return fmt.Errorf("%s layers: %w", w.name, err)
		}
		for k, v := range part {
			spans[k] = v
		}
		// Return the part's memory before the next one allocates.
		runtime.GC()
		debug.FreeOSMemory()
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.spans.tsv", r.w.name, r.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	r.info("spans written to %s", path)
	return nil
}

func main() {
	var (
		name       = flag.String("workload", "", "workload: "+svcName+", "+planName+" or "+stateName+" (with --set, empty runs all)")
		seed       = flag.Uint64("seed", 1, "input seed (with --set, the first of the set's seeds)")
		seconds    = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace      = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
		mpdPath    = flag.String("mpd", ".bench_build/perfbench/mpd", "mpd binary")
		outDir     = flag.String("out", ".bench_build/perfbench/runs", "directory for run records and spans")
		set        = flag.Int("set", 0, "run each workload this many times with consecutive seeds and summarize")
		setupChild = flag.String("setup-child", "", "time one cold library set-up of this workload, print it as JSON and exit")
	)
	flag.Parse()

	if *setupChild != "" {
		w, ok := lookup(*setupChild)
		if !ok || w.setupChild == nil {
			fmt.Fprintf(os.Stderr, "perfbench: no library set-up for %q\n", *setupChild)
			os.Exit(2)
		}
		s, err := w.setupChild(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			os.Exit(1)
		}
		_ = json.NewEncoder(os.Stdout).Encode(s)
		return
	}
	if *set > 0 {
		os.Exit(runSet(*name, *seed, *set, *seconds, *trace, *mpdPath, *outDir))
	}

	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s|%s|%s, --seconds >= 1, --trace 0|1\n", svcName, planName, stateName)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		w: w, seed: *seed, seconds: *seconds, trace: *trace, mpdPath: *mpdPath, outDir: *outDir,
		metrics: map[string]metricOut{},
		rec: record{
			Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
			Provenance: collectProvenance(), Spreads: map[string]spread{},
		},
	}
	p := r.rec.Provenance
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d\n", w.name, r.seed, r.seconds, r.trace)
	fmt.Printf("# provenance: commit=%s source_sha256=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q L2=%s L3=%s\n",
		p.Commit, p.SourceHash, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPU, p.L2, p.L3)
	if len(p.HostLimited) > 0 {
		fmt.Printf("# host-limited (fewer than %d CPUs): %s\n", scalingCPUs, strings.Join(p.HostLimited, ", "))
	}

	var err error
	if r.trace == 1 {
		err = traced(r)
	} else {
		err = w.e2e(r)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res := result{Correct: r.t.wrong == 0, Attempted: r.t.attempted, Failed: r.t.failed, Metrics: r.metrics}
	r.rec.Result = res
	if b, err := json.MarshalIndent(r.rec, "", "  "); err == nil {
		path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, r.seed, r.trace))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}
