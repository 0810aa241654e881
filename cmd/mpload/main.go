// Command mpload is the service load generator: the ssbench
// counterpart for mpd. It drives concurrent HTTP clients against the
// daemon's compute endpoints for a fixed duration per traffic mix and
// reports QPS, latency (mean/p50/p99) and error counts per mix as
// machine-readable JSON — the committed BENCH_service.json at the
// repo root is its reference snapshot (`make bench-service`
// regenerates it).
//
// With -url it targets a running daemon; without, it boots an
// in-process server on a loopback listener so a benchmark run is one
// command. Each worker rotates through a small set of distinct label
// vectors (-plans), so the run exercises the plan cache's hit path
// and, with many workers on few plans, the cross-request batch
// coalescer.
package main

import (
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
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multiprefix/internal/server"
)

// MixResult is one traffic mix's measurement.
type MixResult struct {
	// Mix names the traffic shape: "reduce" (multireduce only),
	// "multi" (full multiprefix only), or "mixed" (alternating).
	Mix string `json:"mix"`
	// Endpoint is the path(s) driven.
	Endpoint string `json:"endpoint"`
	Requests int    `json:"requests"`
	OK       int    `json:"ok"`
	Errors   int    `json:"errors"`
	// Shed counts 429/503 responses (admission control working as
	// designed under overload; they are not in Errors).
	Shed       int     `json:"shed"`
	DurSec     float64 `json:"dur_sec"`
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
	// Fallbacks counts responses served by the degradation ladder's
	// serial rung (nonzero only under chaos).
	Fallbacks int `json:"fallbacks"`
	// FirstError describes the mix's first failed request: its HTTP
	// status and error kind, or the transport error.
	FirstError string `json:"first_error,omitempty"`
}

// Report is the whole run.
type Report struct {
	Host       string      `json:"host"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Backend    string      `json:"backend"`
	Op         string      `json:"op"`
	N          int         `json:"n"`
	M          int         `json:"m"`
	Plans      int         `json:"plans"`
	Clients    int         `json:"clients"`
	Chaos      string      `json:"chaos,omitempty"`
	Mixes      []MixResult `json:"mixes"`
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
		url     = flag.String("url", "", "base URL of a running mpd (empty = boot an in-process server)")
		clients = flag.Int("c", 2*runtime.GOMAXPROCS(0), "concurrent client workers")
		dur     = flag.Duration("dur", 3*time.Second, "measurement duration per mix")
		n       = flag.Int("n", 1<<16, "elements per request")
		m       = flag.Int("m", 256, "label-space size")
		plans   = flag.Int("plans", 4, "distinct label vectors rotated through (plan-cache working set)")
		backend = flag.String("backend", "auto", "backend requested per request")
		op      = flag.String("op", "sum", "operator requested per request")
		mixes   = flag.String("mix", "reduce,multi", "comma-separated mixes to run: reduce, multi, mixed")
		seed    = flag.Int64("seed", 1, "input generation seed")
		chaos   = flag.String("chaos", "", "chaos spec for the in-process server (ignored with -url)")
		out     = flag.String("o", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()

	base := *url
	if base == "" {
		opts := server.Options{Backend: *backend}
		if err := parseChaos(*chaos, &opts); err != nil {
			log.Fatalf("mpload: bad -chaos: %v", err)
		}
		srv := server.New(opts)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("mpload: listen: %v", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer func() { hs.Close(); srv.Close() }()
		base = "http://" + ln.Addr().String()
		log.Printf("mpload: in-process server on %s", base)
	}
	base = strings.TrimRight(base, "/")

	// Pre-encode one request body per (plan, kind): the generator must
	// not spend its measurement window in JSON marshalling.
	rng := rand.New(rand.NewSource(*seed))
	bodies := make([][]byte, *plans)
	for p := 0; p < *plans; p++ {
		labels := make([]int, *n)
		values := make([]int64, *n)
		for i := range labels {
			labels[i] = rng.Intn(*m)
			values[i] = int64(rng.Intn(100))
		}
		b, err := json.Marshal(map[string]any{
			"op": *op, "backend": *backend, "m": *m,
			"labels": labels, "values": values,
		})
		if err != nil {
			log.Fatalf("mpload: marshal: %v", err)
		}
		bodies[p] = b
	}

	rep := Report{
		Host:       hostname(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Backend:    *backend,
		Op:         *op,
		N:          *n,
		M:          *m,
		Plans:      *plans,
		Clients:    *clients,
		Chaos:      *chaos,
	}
	// A mix that got no request through measured nothing but its
	// refusals: the run reports it and fails.
	var failed []string
	for _, mix := range strings.Split(*mixes, ",") {
		mix = strings.TrimSpace(mix)
		if mix == "" {
			continue
		}
		before := serverStats(base)
		r := runMix(base, mix, bodies, *clients, *dur, *n)
		after := serverStats(base)
		if d := after.Requests - before.Requests; d > 0 {
			r.TextHitShare = float64(after.LabelTextHits-before.LabelTextHits) / float64(d)
		}
		rep.Mixes = append(rep.Mixes, r)
		log.Printf("mpload: %-6s %8.0f qps  mean %6.2fms  p99 %6.2fms  ok %d  err %d  shed %d  coalesced %.2f  text hits %.3f",
			r.Mix, r.QPS, r.MeanMS, r.P99MS, r.OK, r.Errors, r.Shed, r.CoalescedAvg, r.TextHitShare)
		if r.OK == 0 {
			failed = append(failed, fmt.Sprintf("mix %s: 0 of %d requests ok; first error: %s", r.Mix, r.Requests, r.FirstError))
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
				ws.lat = append(ws.lat, time.Since(t0))
				switch {
				case resp.StatusCode == http.StatusOK && derr == nil:
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
	res.QPS = float64(res.Requests) / elapsed.Seconds()
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
