package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
	"multiprefix/internal/server"
)

// svc-prefix-64k: mpd on loopback, a closed loop of svcConns keep-alive
// connections (callers wait for each reply, as mpload and the CG/SpMV
// loops do) posting /v1/multiprefix, op sum, n=2^16, m=256, rotating
// over svcVectors label vectors.
//
// Why: it is the service end to end, and the wire and server layers do
// nearly all of its work: timed from outside, the handler's time is
// mostly JSON decode, then encode and the label digest, with the engine
// well under 1%. A wire or server change moves this workload and leaves
// the lib-* workloads flat; an engine change barely moves it.
//
// Layer split (traced run): cmd/mpd = client latency minus handler
// latency; internal/server = Handler().ServeHTTP, split by replaying its
// calls (decode into the wire shape, backend.KeyFor, Plan.Run on an auto
// plan, encode); the /v1/stats counters at run end.
const (
	svcN       = 1 << 16
	svcM       = 256
	svcVectors = 4
	svcConns   = 2
)

// svcInputs are the requests: pre-encoded bodies, and the pre-encoded
// reference multiprefix array of each, which a response must contain
// byte for byte.
type svcInputs struct {
	labels [][]int
	bodies [][]byte
	want   [][]byte
}

// wireRequest and wireResponse mirror the service's /v1/multiprefix
// request and response bodies field for field.
type wireRequest struct {
	Op         string    `json:"op"`
	Backend    string    `json:"backend,omitempty"`
	M          int       `json:"m"`
	Labels     []int     `json:"labels"`
	Values     []int64   `json:"values,omitempty"`
	Batch      [][]int64 `json:"batch,omitempty"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	PinVersion uint64    `json:"pin_version,omitempty"`
}

type wireResponse struct {
	Backend    string  `json:"backend"`
	Op         string  `json:"op"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	Multi      []int64 `json:"multi,omitempty"`
	Reductions []int64 `json:"reductions,omitempty"`
	Coalesced  int     `json:"coalesced"`
	Fallback   string  `json:"fallback,omitempty"`
}

func genSvc(seed uint64) (*svcInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 1))
	in := &svcInputs{}
	for k := 0; k < svcVectors; k++ {
		labels := make([]int, svcN)
		values := make([]int64, svcN)
		for i := range labels {
			labels[i] = rng.IntN(svcM)
			values[i] = rng.Int64N(2001) - 1000
		}
		body, err := json.Marshal(wireRequest{Op: "sum", M: svcM, Labels: labels, Values: values})
		if err != nil {
			return nil, err
		}
		ref, err := core.Serial(core.AddInt64, values, labels, svcM)
		if err != nil {
			return nil, err
		}
		want, err := json.Marshal(ref.Multi)
		if err != nil {
			return nil, err
		}
		in.labels = append(in.labels, labels)
		in.bodies = append(in.bodies, body)
		in.want = append(in.want, want)
	}
	return in, nil
}

// hasMulti reports whether a response body carries exactly want as its
// "multi" array, without decoding it.
func hasMulti(body, want []byte) bool {
	i := bytes.Index(body, []byte(`"multi":`))
	if i < 0 {
		return false
	}
	rest := body[i+len(`"multi":`):]
	return len(rest) > len(want) && bytes.Equal(rest[:len(want)], want) &&
		(rest[len(want)] == ',' || rest[len(want)] == '}')
}

// mpd is a running daemon started from the built binary with its
// default flags, listening on a free loopback port.
type mpd struct {
	cmd    *exec.Cmd
	pid    string
	url    string
	logEOF chan struct{}
}

// startMpd execs the daemon and returns once it reports its address.
func startMpd(path string) (*mpd, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0")
	// The kernel kills the daemon if the benchmark dies before stop.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mpd: %w", err)
	}
	d := &mpd{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), logEOF: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logEOF)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "serving on "); ok {
				a, _, _ = strings.Cut(a, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.logEOF:
		d.stop()
		return nil, errors.New("mpd exited before serving")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("mpd did not report its address within 30s")
	}
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; it kills it if the drain does not finish.
func (d *mpd) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logEOF:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logEOF
	}
	_ = d.cmd.Wait()
}

// stats fetches the daemon's /v1/stats counters.
func (d *mpd) stats() (server.StatsSnapshot, error) {
	var st server.StatsSnapshot
	resp, err := http.Get(d.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// svcConn is one keep-alive client connection with its own read buffer,
// reused for every response.
type svcConn struct {
	tr     *http.Transport
	client *http.Client
	url    string
	buf    []byte
}

func newSvcConn(base string) *svcConn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &svcConn{tr: tr, client: &http.Client{Transport: tr}, url: base + "/v1/multiprefix", buf: make([]byte, 1<<20)}
}

func (c *svcConn) close() { c.tr.CloseIdleConnections() }

// post sends one pre-encoded request and reads the whole response into
// the connection's buffer.
func (c *svcConn) post(body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	n := 0
	for {
		if n == len(c.buf) {
			c.buf = append(c.buf, make([]byte, len(c.buf))...)
		}
		k, err := resp.Body.Read(c.buf[n:])
		n += k
		if err == io.EOF {
			return resp.StatusCode, c.buf[:n], nil
		}
		if err != nil {
			return resp.StatusCode, c.buf[:n], err
		}
	}
}

// tally counts a phase's operations.
type tally struct {
	attempted, failed, wrong int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
}

// coldStart times one set-up: exec of mpd to a verified answer for every
// label vector, i.e. for every plan the workload uses. The daemon is left
// running.
func coldStart(path string, in *svcInputs) (*mpd, float64, error) {
	t0 := time.Now()
	d, err := startMpd(path)
	if err != nil {
		return nil, 0, err
	}
	c := newSvcConn(d.url)
	defer c.close()
	for k := range in.bodies {
		status, body, err := c.post(in.bodies[k])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		} else if err == nil && !hasMulti(body, in.want[k]) {
			err = errWrong
		}
		if err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("set-up request %d: %w", k, err)
		}
	}
	return d, time.Since(t0).Seconds(), nil
}

// svcLoad runs the closed loop for dur: svcConns connections, each
// sending its next request when the previous reply has been read and
// checked. Connection c starts its rotation at vector c*svcVectors/svcConns.
func svcLoad(url string, in *svcInputs, dur time.Duration) ([]opSample, tally) {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []opSample
		tot tally
	)
	start := time.Now()
	for c := 0; c < svcConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn := newSvcConn(url)
			defer conn.close()
			ops := make([]opSample, 0, 4096)
			var t tally
			for k := c * svcVectors / svcConns; time.Since(start) < dur; k++ {
				v := k % svcVectors
				t0 := time.Now()
				status, body, err := conn.post(in.bodies[v])
				t1 := time.Now()
				t.attempted++
				lat := int64(t1.Sub(t0))
				switch {
				case err != nil || status != http.StatusOK:
					t.failed++
					lat = failedLat
				case !hasMulti(body, in.want[v]):
					t.failed++
					t.wrong++
					lat = failedLat
				}
				ops = append(ops, opSample{end: int64(t1.Sub(start)), lat: lat})
			}
			mu.Lock()
			all = append(all, ops...)
			tot.add(t)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, tot
}

// selfCPUSeconds is this process's user plus system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// svcPhase is one measured closed-loop phase against a running mpd.
type svcPhase struct {
	ops  []opSample
	t    tally
	mpdS float64 // mpd CPU seconds during the phase
	genS float64 // this process's CPU seconds during the phase
}

func measureSvc(d *mpd, in *svcInputs, dur time.Duration) svcPhase {
	m0, g0 := procCPUSeconds(d.pid), selfCPUSeconds()
	ops, t := svcLoad(d.url, in, dur)
	return svcPhase{ops: ops, t: t, mpdS: procCPUSeconds(d.pid) - m0, genS: selfCPUSeconds() - g0}
}

func (p svcPhase) genShare() float64 { return p.genS / (p.genS + p.mpdS) }

func (p svcPhase) mpdMsPerReq() float64 {
	return p.mpdS * 1e3 / float64(max(1, p.t.attempted-p.t.failed))
}

// svcE2E is the end-to-end run: setupSamples cold starts (the last
// daemon stays up), a warm-up, then the measured phase.
func svcE2E(r *run) error {
	in, err := genSvc(r.seed)
	if err != nil {
		return err
	}
	var d *mpd
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		if d != nil {
			d.stop()
		}
		var s float64
		if d, s, err = coldStart(r.mpdPath, in); err != nil {
			return err
		}
		setups = append(setups, s)
	}
	r.t.attempted += setupSamples * svcVectors
	r.t.add(measureSvc(d, in, warmup).t)
	ph := measureSvc(d, in, r.dur())
	rss := peakRSSMB(d.pid)
	d.stop()
	r.t.add(ph.t)
	tput, p50, p90 := windowFigures(ph.ops, r.seconds, false)
	r.e2e(ph.ops, tput, p50, p90, setups, rss)
	r.info("gen.cpu_share=%.4f mpd.cpu_ms_per_req=%.3f (mpd CPU over completed requests)", ph.genShare(), ph.mpdMsPerReq())
	// mpd's own calibration is not observable from outside; this
	// process's, taken after the daemon stopped, stands in for it.
	r.calibrate()
	return nil
}

// svcReplayer is one in-process caller of the traced svc replay.
type svcReplayer struct {
	h     http.Handler
	in    *svcInputs
	plans []*backend.Plan[int64]
	rw    recorder
	enc   bytes.Buffer
	l     *spanLog
	t     tally
}

// op sends request v through the handler, then replays the calls the
// handler makes on it: decode into the wire shape, the plan-cache key's
// label digest, Plan.Run and encode, each in its own span under the
// operation's root. It checks both answers after the spans close and
// returns the operation's latency.
func (p *svcReplayer) op(v int, op int32) int64 {
	l := p.l
	p.t.attempted++
	req, err := http.NewRequest(http.MethodPost, "/v1/multiprefix", bytes.NewReader(p.in.bodies[v]))
	if err != nil {
		p.t.failed++
		return failedLat
	}
	p.rw.reset()
	t0 := time.Now()
	root := l.begin("bench.request", -1, op)
	s := l.begin("server.ServeHTTP", root, op)
	p.h.ServeHTTP(&p.rw, req)
	l.end(s)
	s = l.begin("server.decode", root, op)
	var wr wireRequest
	derr := json.NewDecoder(bytes.NewReader(p.in.bodies[v])).Decode(&wr)
	l.end(s)
	s = l.begin("backend.KeyFor", root, op)
	_ = backend.KeyFor("auto", core.AddInt64.Name, wr.Labels, wr.M)
	l.end(s)
	s = l.begin("backend.Plan.Run", root, op)
	res, rerr := p.plans[v].Run(wr.Values)
	l.end(s)
	s = l.begin("server.encode", root, op)
	p.enc.Reset()
	eerr := json.NewEncoder(&p.enc).Encode(wireResponse{Backend: "auto", Op: wr.Op, N: len(wr.Labels), M: wr.M, Multi: res.Multi, Coalesced: 1})
	l.end(s)
	l.end(root)
	lat := int64(time.Since(t0))
	switch {
	case p.rw.status != http.StatusOK || derr != nil || rerr != nil || eerr != nil:
		p.t.failed++
		return failedLat
	case !hasMulti(p.rw.body.Bytes(), p.in.want[v]) || !hasMulti(p.enc.Bytes(), p.in.want[v]):
		p.t.failed++
		p.t.wrong++
		return failedLat
	}
	return lat
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header         { return w.h }
func (w *recorder) WriteHeader(status int)      { w.status = status }
func (w *recorder) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *recorder) reset() {
	clear(w.h)
	w.status = http.StatusOK
	w.body.Reset()
}

// svcLayers is the svc part of a traced run: budget/2 seconds of the
// untraced closed loop against mpd (client latency, mpd CPU, generator
// CPU, the /v1/stats counters), then budget/2 seconds replaying the same
// requests in-process at the same concurrency, each as ServeHTTP on a
// server.New handler followed by the calls that handler makes, each in
// its own span.
func svcLayers(r *run, budget time.Duration) (map[string][]*spanLog, error) {
	in, err := genSvc(r.seed)
	if err != nil {
		return nil, err
	}
	d, _, err := coldStart(r.mpdPath, in)
	if err != nil {
		return nil, err
	}
	r.t.attempted += svcVectors
	ph := measureSvc(d, in, budget/2)
	r.t.add(ph.t)
	st, err := d.stats()
	d.stop()
	if err != nil {
		return nil, fmt.Errorf("mpd /v1/stats: %w", err)
	}
	clientLat := latencies(ph.ops)

	srv := server.New(server.Options{})
	defer srv.Close()
	// Each caller owns auto plans of the svc shape (Run results alias
	// plan storage), built as the service's plan cache builds them.
	be, err := backend.Open[int64]("auto")
	if err != nil {
		return nil, err
	}
	var build []float64
	epoch := time.Now()
	callers := make([]*svcReplayer, svcConns)
	logs := make([]*spanLog, svcConns)
	for c := range callers {
		rp := &svcReplayer{h: srv.Handler(), in: in, rw: recorder{h: http.Header{}}, l: newSpanLog(epoch, 1<<16)}
		for k := 0; k < svcVectors; k++ {
			t0 := time.Now()
			p, err := be.Plan(core.AddInt64, in.labels[k], svcM, core.Config{Workers: runtime.GOMAXPROCS(0)})
			if err != nil {
				return nil, err
			}
			build = append(build, time.Since(t0).Seconds()*1e3)
			defer p.Close()
			rp.plans = append(rp.plans, p)
		}
		callers[c], logs[c] = rp, rp.l
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ops []opSample
	)
	for c, rp := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := c * svcVectors / svcConns
			// One untraced round fills the server's plan cache.
			for k := first; k < first+svcVectors; k++ {
				rp.op(k%svcVectors, -1)
			}
			rp.l.spans = rp.l.spans[:0]
			var mine []opSample
			start := time.Now()
			for k := first; time.Since(start) < budget/2 && !rp.l.full(6); k++ {
				lat := rp.op(k%svcVectors, int32(k*svcConns+c))
				mine = append(mine, opSample{end: int64(time.Since(start)), lat: lat})
			}
			mu.Lock()
			ops = append(ops, mine...)
			r.t.add(rp.t)
			mu.Unlock()
		}()
	}
	wg.Wait()

	sp := durations(logs...)
	ms := func(name string) float64 { return sp.p50(name) / 1e6 }
	handler := ms("server.ServeHTTP")
	covered := ms("server.decode") + ms("backend.KeyFor") + ms("backend.Plan.Run") + ms("server.encode")
	clientP50 := quantile(clientLat, 0.5)
	r.layer("mpd.http_ms", clientP50-handler, "ms")
	r.layer("mpd.cpu_ms_per_req", ph.mpdMsPerReq(), "ms")
	r.layer("server.handler_ms", handler, "ms")
	r.layer("server.decode_ms", ms("server.decode"), "ms")
	r.layer("server.digest_ms", ms("backend.KeyFor"), "ms")
	r.layer("server.engine_ms", ms("backend.Plan.Run"), "ms")
	r.layer("server.encode_ms", ms("server.encode"), "ms")
	r.layer("server.unattributed_ms", handler-covered, "ms")
	r.layer("server.covered_share", covered/handler, "fraction")
	r.layer("server.cache_hit_ratio", float64(st.CacheHits)/float64(max(1, st.CacheHits+st.CacheMisses)), "fraction")
	r.layer("server.fused_per_round", float64(st.FusedMembers)/float64(max(1, st.FusedRounds)), "count")
	r.layer("server.shed", float64(st.Shed+st.QuotaShed), "count")
	r.layer("server.errors", float64(st.Errors), "count")
	r.layer("server.serial_fallbacks", float64(st.SerialFallbacks), "count")
	r.layer("gen.cpu_share", ph.genShare(), "fraction")
	r.layer("backend.plan_build_ms."+svcName, median(build), "ms")

	traced := latencies(ops)
	r.info("svc split, p50 per request: client %.3f ms = mpd %.3f + handler %.3f; handler = decode %.3f + digest %.3f + engine %.3f + encode %.3f + unattributed %.3f (covered %.1f%%)",
		clientP50, clientP50-handler, handler, ms("server.decode"), ms("backend.KeyFor"), ms("backend.Plan.Run"), ms("server.encode"), handler-covered, 100*covered/handler)
	r.info("svc tracing overhead: untraced client p50 %.3f ms p90 %.3f ms over %d requests to mpd; traced in-process ServeHTTP p50 %.3f ms p90 %.3f ms over %d, each followed by the replay of its calls (whole traced operation p50 %.3f ms)",
		clientP50, quantile(clientLat, 0.9), len(clientLat), handler, quantile(sp["server.ServeHTTP"], 0.9)/1e6, len(traced), quantile(traced, 0.5))
	return map[string][]*spanLog{svcName: logs}, nil
}
