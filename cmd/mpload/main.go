// Command mpload is the service load generator: the ssbench
// counterpart for mpd. It drives concurrent HTTP clients against the
// daemon's compute endpoints for a fixed duration per traffic mix and
// reports QPS and latency (mean/p50/p99) over the OK responses, and
// error and shed counts, per mix as machine-readable JSON — the
// committed BENCH_service.json at the repo root is its reference
// snapshot (`make bench-service` regenerates it).
//
// With -url it targets a running daemon; without, it boots a fresh
// in-process server on a loopback listener for every sample, so a
// sample starts from an empty plan cache and a benchmark run is one
// command. Each worker rotates cyclically through a set of distinct
// label vectors (-plans), so the run exercises the plan cache's hit
// path and, with many workers on few plans, the cross-request batch
// coalescer; a set larger than the cache (64 plans by default) makes
// almost every request a miss, LRU's worst case. -backend and -plans
// take comma-separated lists, and every (backend, plans, mix) point is
// measured three times and reported with its median and quartiles.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multiprefix/internal/server"
)

// samples is how many times each point is measured: enough for a median
// and quartiles, few enough that a sweep of 18 points runs in minutes.
const samples = 3

// MixResult is one sample of one traffic mix.
type MixResult struct {
	// Mix names the traffic shape: "reduce" (multireduce only),
	// "multi" (full multiprefix only), or "mixed" (alternating).
	Mix string `json:"mix"`
	// Endpoint is the path(s) driven.
	Endpoint string `json:"endpoint"`
	// Requests counts the requests attempted: OK + Errors + Shed.
	Requests int `json:"requests"`
	OK       int `json:"ok"`
	Errors   int `json:"errors"`
	// Shed counts 429/503 responses (admission control working as
	// designed under overload; they are not in Errors).
	Shed   int     `json:"shed"`
	DurSec float64 `json:"dur_sec"`
	// QPS is the OK responses served per second, and the latencies are
	// those of the OK responses: a refused request is not throughput.
	QPS        float64 `json:"qps"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	ElemPerSec float64 `json:"elem_per_sec"`
	// CoalescedAvg is the mean fused-round size observed in responses
	// (1 = every request ran alone).
	CoalescedAvg float64 `json:"coalesced_avg"`
	// TextHitShare is the share of the mix's requests whose plan the
	// server found by the labels array's wire bytes, from /v1/stats.
	TextHitShare float64 `json:"text_hit_share"`
	// CacheMisses and AutoTrials are the plan builds and the auto plans'
	// trials during the sample, from /v1/stats.
	CacheMisses uint64 `json:"cache_misses"`
	AutoTrials  uint64 `json:"auto_trials"`
	// Fallbacks counts responses served by the degradation ladder's
	// serial rung (nonzero only under chaos).
	Fallbacks int `json:"fallbacks"`
	// FirstError describes the mix's first failed request: its HTTP
	// status and error kind, or the transport error.
	FirstError string `json:"first_error,omitempty"`
}

// Spread is a figure's median and quartiles over a point's samples
// (Python's statistics.quantiles, exclusive method).
type Spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Point is one (backend, plans, mix) measurement: its samples and the
// spread of the figures read from them.
type Point struct {
	Backend      string      `json:"backend"`
	Plans        int         `json:"plans"`
	Mix          string      `json:"mix"`
	QPS          Spread      `json:"qps"`
	P50MS        Spread      `json:"p50_ms"`
	P99MS        Spread      `json:"p99_ms"`
	TextHitShare Spread      `json:"text_hit_share"`
	Samples      []MixResult `json:"samples"`
}

// Provenance says where a report came from.
type Provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Host       string `json:"host"`
}

// Report is the whole run.
type Report struct {
	Provenance Provenance `json:"provenance"`
	// Target is "in-process" (a fresh server per sample) or the -url.
	Target  string  `json:"target"`
	Op      string  `json:"op"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	Clients int     `json:"clients"`
	DurSec  float64 `json:"dur_sec"`
	Seed    int64   `json:"seed"`
	// Order is how each client walks the label vectors: "cyclic".
	Order  string  `json:"order"`
	Chaos  string  `json:"chaos,omitempty"`
	Points []Point `json:"points"`
}

// response is the part of a reply mpload reads. It leaves out multi and
// reductions, which it never uses: decoding them would spend client CPU
// on the same CPUs an in-process server runs on.
type response struct {
	Coalesced int    `json:"coalesced"`
	Fallback  string `json:"fallback"`
	Error     *struct {
		Kind string `json:"kind"`
	} `json:"error"`
}

func main() {
	var (
		url      = flag.String("url", "", "base URL of a running mpd (empty = boot an in-process server per sample)")
		clients  = flag.Int("c", 2*runtime.GOMAXPROCS(0), "concurrent client workers")
		dur      = flag.Duration("dur", 3*time.Second, "measurement duration per sample")
		n        = flag.Int("n", 1<<16, "elements per request")
		m        = flag.Int("m", 256, "label-space size")
		plansArg = flag.String("plans", "4", "comma-separated counts of distinct label vectors rotated through (plan-cache working set)")
		backends = flag.String("backend", "auto", "comma-separated backends requested per request")
		op       = flag.String("op", "sum", "operator requested per request")
		mixes    = flag.String("mix", "reduce,multi", "comma-separated mixes to run: reduce, multi, mixed")
		seed     = flag.Int64("seed", 1, "input generation seed")
		chaos    = flag.String("chaos", "", "chaos spec for the in-process server (ignored with -url)")
		out      = flag.String("o", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()

	opts := server.Options{}
	if err := parseChaos(*chaos, &opts); err != nil {
		log.Fatalf("mpload: bad -chaos: %v", err)
	}
	var plansList []int
	for _, f := range splitList(*plansArg) {
		p, err := strconv.Atoi(f)
		if err != nil || p < 1 {
			log.Fatalf("mpload: bad -plans entry %q", f)
		}
		plansList = append(plansList, p)
	}

	rep := Report{
		Provenance: provenance(),
		Target:     "in-process",
		Op:         *op,
		N:          *n,
		M:          *m,
		Clients:    *clients,
		DurSec:     dur.Seconds(),
		Seed:       *seed,
		Order:      "cyclic",
		Chaos:      *chaos,
	}
	if *url != "" {
		rep.Target = *url
	}
	// A mix that got no request through measured nothing but its
	// refusals: the run reports it and fails.
	var failed []string
	for _, be := range splitList(*backends) {
		for _, plans := range plansList {
			bodies := makeBodies(*seed, plans, *n, *m, *op, be)
			for _, mix := range splitList(*mixes) {
				pt := Point{Backend: be, Plans: plans, Mix: mix}
				for range samples {
					r := sample(*url, opts, mix, bodies, *clients, *dur, *n)
					pt.Samples = append(pt.Samples, r)
					log.Printf("mpload: %-7s plans %-4d %-6s %8.0f qps  mean %6.2fms  p99 %6.2fms  ok %d  err %d  shed %d  coalesced %.2f  text hits %.3f  misses %d  trials %d",
						be, plans, r.Mix, r.QPS, r.MeanMS, r.P99MS, r.OK, r.Errors, r.Shed, r.CoalescedAvg, r.TextHitShare, r.CacheMisses, r.AutoTrials)
					if r.OK == 0 {
						failed = append(failed, fmt.Sprintf("mix %s: 0 of %d requests ok; first error: %s", r.Mix, r.Requests, r.FirstError))
					}
				}
				pt.QPS = spreadOf(pt.Samples, func(r MixResult) float64 { return r.QPS })
				pt.P50MS = spreadOf(pt.Samples, func(r MixResult) float64 { return r.P50MS })
				pt.P99MS = spreadOf(pt.Samples, func(r MixResult) float64 { return r.P99MS })
				pt.TextHitShare = spreadOf(pt.Samples, func(r MixResult) float64 { return r.TextHitShare })
				rep.Points = append(rep.Points, pt)
			}
		}
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatalf("mpload: write %s: %v", *out, err)
	} else {
		log.Printf("mpload: wrote %s", *out)
	}
	if len(failed) > 0 {
		log.Fatalf("mpload: %s", strings.Join(failed, "; "))
	}
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// makeBodies pre-encodes one request body per label vector: the
// generator must not spend its measurement window in JSON marshalling.
// The vectors depend on the seed alone, so a smaller -plans count
// rotates through a prefix of a larger one's.
func makeBodies(seed int64, plans, n, m int, op, backend string) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, plans)
	labels := make([]int, n)
	values := make([]int64, n)
	for p := range bodies {
		for i := range labels {
			labels[i] = rng.Intn(m)
			values[i] = int64(rng.Intn(100))
		}
		b, err := json.Marshal(map[string]any{
			"op": op, "backend": backend, "m": m,
			"labels": labels, "values": values,
		})
		if err != nil {
			log.Fatalf("mpload: marshal: %v", err)
		}
		bodies[p] = b
	}
	return bodies
}

// sample measures one mix once: against url, or else against a fresh
// in-process server built from opts, closed once the sample ends. It
// collects first, so an earlier point's bodies and plans are not
// collected on its time.
func sample(url string, opts server.Options, mix string, bodies [][]byte, clients int, dur time.Duration, n int) MixResult {
	runtime.GC()
	base := url
	if base == "" {
		srv := server.New(opts)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("mpload: listen: %v", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer func() { hs.Close(); srv.Close() }()
		base = "http://" + ln.Addr().String()
	}
	base = strings.TrimRight(base, "/")
	before := serverStats(base)
	r := runMix(base, mix, bodies, clients, dur, n)
	after := serverStats(base)
	if d := after.Requests - before.Requests; d > 0 {
		r.TextHitShare = float64(after.LabelTextHits-before.LabelTextHits) / float64(d)
	}
	r.CacheMisses = after.CacheMisses - before.CacheMisses
	r.AutoTrials = after.AutoTrials - before.AutoTrials
	return r
}

// spreadOf is the Spread of one figure over a point's samples.
func spreadOf(runs []MixResult, figure func(MixResult) float64) Spread {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = figure(r)
	}
	slices.Sort(v)
	if len(v) == 1 {
		return Spread{Median: v[0], Q1: v[0], Q3: v[0]}
	}
	// statistics.quantiles(n=4), exclusive method: cut point i of 3
	// lies at rank i·(len+1)/4, interpolated.
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(len(v)+1)/4, 1), len(v)-1)
		delta := float64(i*(len(v)+1) - j*4)
		q[i-1] = (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return Spread{Q1: q[0], Median: q[1], Q3: q[2]}
}

// provenance records the commit (when the working directory is the top
// of a git checkout, marked -dirty when tracked files differ from it),
// the Go version, GOMAXPROCS, the CPU count and model, and the host
// name.
func provenance() Provenance {
	p := Provenance{
		Commit:     "none",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        "unknown",
		Host:       hostname(),
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
			// Tracked files that differ from HEAD: the code measured is
			// not the commit's.
			if diff, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(diff) > 0 {
				p.Commit += "-dirty"
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// runMix drives one traffic mix for dur and aggregates the outcome.
func runMix(base, mix string, bodies [][]byte, clients int, dur time.Duration, n int) MixResult {
	endpoint := func(i int) string {
		switch mix {
		case "reduce":
			return base + "/v1/multireduce"
		case "multi":
			return base + "/v1/multiprefix"
		default: // mixed: alternate per request
			if i%2 == 0 {
				return base + "/v1/multireduce"
			}
			return base + "/v1/multiprefix"
		}
	}

	type workerStats struct {
		lat                      []time.Duration
		ok, errs, shed, coal, fb int
	}
	stats := make([]workerStats, clients)
	// firstErr is the first failed request of any worker.
	var firstErr atomic.Pointer[string]
	fail := func(msg string) { firstErr.CompareAndSwap(nil, &msg) }
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			ws := &stats[w]
			for i := 0; time.Now().Before(deadline); i++ {
				body := bodies[(w+i)%len(bodies)]
				t0 := time.Now()
				resp, err := client.Post(endpoint(w+i), "application/json", bytes.NewReader(body))
				if err != nil {
					ws.errs++
					fail(err.Error())
					continue
				}
				var r response
				derr := json.NewDecoder(resp.Body).Decode(&r)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)
				switch {
				case resp.StatusCode == http.StatusOK && derr == nil:
					ws.lat = append(ws.lat, lat)
					ws.ok++
					ws.coal += r.Coalesced
					if r.Fallback != "" {
						ws.fb++
					}
				case resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable:
					ws.shed++
				default:
					ws.errs++
					kind := "none"
					if r.Error != nil {
						kind = r.Error.Kind
					}
					fail(fmt.Sprintf("HTTP %d, error.kind %s", resp.StatusCode, kind))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := MixResult{
		Mix:      mix,
		Endpoint: strings.TrimPrefix(endpoint(0), base),
		DurSec:   elapsed.Seconds(),
	}
	if mix == "mixed" {
		res.Endpoint += "|" + strings.TrimPrefix(endpoint(1), base)
	}
	if p := firstErr.Load(); p != nil {
		res.FirstError = *p
	}
	var all []time.Duration
	for i := range stats {
		ws := &stats[i]
		all = append(all, ws.lat...)
		res.OK += ws.ok
		res.Errors += ws.errs
		res.Shed += ws.shed
		res.Fallbacks += ws.fb
		res.CoalescedAvg += float64(ws.coal)
	}
	res.Requests = res.OK + res.Errors + res.Shed
	if res.OK > 0 {
		res.CoalescedAvg /= float64(res.OK)
	}
	res.QPS = float64(res.OK) / elapsed.Seconds()
	res.ElemPerSec = float64(res.OK) * float64(n) / elapsed.Seconds()
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		res.MeanMS = float64(sum.Milliseconds()) / float64(len(all))
		res.P50MS = float64(all[len(all)/2].Microseconds()) / 1000
		res.P99MS = float64(all[len(all)*99/100].Microseconds()) / 1000
	}
	return res
}

func parseChaos(spec string, opts *server.Options) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("%q is not key=value", part)
		}
		var n int64
		if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
			return fmt.Errorf("%q: %w", part, err)
		}
		switch k {
		case "panic":
			opts.ChaosPanicEvery = int(n)
		case "cancel":
			opts.ChaosCancelEvery = int(n)
		case "seed":
			opts.ChaosSeed = n
		default:
			return fmt.Errorf("unknown key %q", k)
		}
	}
	return nil
}

// serverStats fetches the server's /v1/stats counters; a zero snapshot
// when they cannot be read.
func serverStats(base string) server.StatsSnapshot {
	var st server.StatsSnapshot
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		log.Printf("mpload: /v1/stats: %v", err)
		return st
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Printf("mpload: /v1/stats: %v", err)
	}
	return st
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}
