package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"multiprefix/internal/core"
)

// testServer couples a Server with an httptest front end.
type testServer struct {
	s  *Server
	ts *httptest.Server
}

func newTestServer(t *testing.T, opts Options) *testServer {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testServer{s: s, ts: ts}
}

// post sends body to path and decodes the response JSON into out,
// returning the HTTP response for status/header checks.
func (x *testServer) post(t *testing.T, path string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(x.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp
}

// req builds a well-formed compute request body.
func req(op string, backend string, labels []int, m int, values []int64) map[string]any {
	b := map[string]any{"op": op, "m": m, "labels": labels, "values": values}
	if backend != "" {
		b["backend"] = backend
	}
	return b
}

// refInputs builds a deterministic test input.
func refInputs(n, m int) ([]int, []int64) {
	labels := make([]int, n)
	values := make([]int64, n)
	for i := range labels {
		labels[i] = (i * 7) % m
		values[i] = int64(i%13) - 4
	}
	return labels, values
}

func TestComputeEndpoints(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, values := refInputs(1000, 17)
	for _, op := range []struct {
		name string
		op   core.Op[int64]
	}{{"sum", core.AddInt64}, {"max", core.MaxInt64}, {"xor", core.XorInt64}} {
		want, err := core.Serial(op.op, values, labels, 17)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for _, backend := range []string{"serial", "sorted", "sharded", "chunked", "auto"} {
			t.Run(op.name+"/"+backend, func(t *testing.T) {
				var resp computeResponse
				hr := x.post(t, "/v1/multiprefix", req(op.name, backend, labels, 17, values), &resp)
				if hr.StatusCode != http.StatusOK {
					t.Fatalf("multiprefix status %d", hr.StatusCode)
				}
				if len(resp.Multi) != len(want.Multi) || resp.Reductions != nil {
					t.Fatalf("multiprefix shape: multi %d, reductions %v", len(resp.Multi), resp.Reductions)
				}
				for i := range want.Multi {
					if resp.Multi[i] != want.Multi[i] {
						t.Fatalf("multi[%d] = %d, want %d", i, resp.Multi[i], want.Multi[i])
					}
				}

				var red computeResponse
				hr = x.post(t, "/v1/multireduce", req(op.name, backend, labels, 17, values), &red)
				if hr.StatusCode != http.StatusOK {
					t.Fatalf("multireduce status %d", hr.StatusCode)
				}
				if red.Multi != nil || len(red.Reductions) != 17 {
					t.Fatalf("multireduce shape: multi %v, reductions %d", red.Multi, len(red.Reductions))
				}
				for k := range want.Reductions {
					if red.Reductions[k] != want.Reductions[k] {
						t.Fatalf("reductions[%d] = %d, want %d", k, red.Reductions[k], want.Reductions[k])
					}
				}
			})
		}
		// The study engines are not served: both routes answer the
		// typed 400, listing the backends that are.
		for _, backend := range []string{"parallel", "spinetree"} {
			t.Run(op.name+"/"+backend, func(t *testing.T) {
				for _, route := range []string{"/v1/multiprefix", "/v1/multireduce"} {
					var er errorResponse
					hr := x.post(t, route, req(op.name, backend, labels, 17, values), &er)
					if hr.StatusCode != http.StatusBadRequest || er.Error.Kind != kindUnknownBack ||
						!strings.Contains(er.Error.Message, "auto, serial, sorted, sharded, chunked") {
						t.Fatalf("%s: got %d/%q %q, want 400/%q listing the served backends",
							route, hr.StatusCode, er.Error.Kind, er.Error.Message, kindUnknownBack)
					}
				}
			})
		}
	}
}

func TestBatchEndpoints(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, _ := refInputs(512, 9)
	batch := make([][]int64, 4)
	for k := range batch {
		batch[k] = make([]int64, len(labels))
		for i := range batch[k] {
			batch[k][i] = int64((i + k) % 11)
		}
	}
	body := map[string]any{"op": "sum", "backend": "sorted", "m": 9, "labels": labels, "batch": batch}
	for _, ep := range []string{"/v1/multiprefix/batch", "/v1/multireduce/batch"} {
		var resp batchResponse
		hr := x.post(t, ep, body, &resp)
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", ep, hr.StatusCode)
		}
		if resp.Failed != 0 || len(resp.Results) != len(batch) {
			t.Fatalf("%s: failed=%d results=%d", ep, resp.Failed, len(resp.Results))
		}
		reduce := strings.Contains(ep, "multireduce")
		for k, item := range resp.Results {
			if item.Coalesced != len(batch) {
				t.Fatalf("%s item %d: coalesced %d, want the batch's %d vectors in one round", ep, k, item.Coalesced, len(batch))
			}
			want, _ := core.Serial(core.AddInt64, batch[k], labels, 9)
			got, ref := item.Multi, want.Multi
			if reduce {
				got, ref = item.Reductions, want.Reductions
			}
			if len(got) != len(ref) {
				t.Fatalf("%s item %d: %d values, want %d", ep, k, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s item %d: [%d] = %d, want %d", ep, k, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestBadRequests(t *testing.T) {
	x := newTestServer(t, Options{MaxN: 64, MaxM: 16})
	labels, values := refInputs(8, 4)
	cases := []struct {
		name   string
		path   string
		body   any
		status int
		kind   string
	}{
		{"unknown op", "/v1/multiprefix", req("median", "", labels, 4, values), 400, kindBadInput},
		{"unserved backend", "/v1/multiprefix", req("sum", "vector", labels, 4, values), 400, kindUnknownBack},
		{"unknown backend", "/v1/multiprefix", req("sum", "gpu", labels, 4, values), 400, kindUnknownBack},
		{"length mismatch", "/v1/multiprefix", req("sum", "", labels, 4, values[:4]), 400, kindBadInput},
		{"label out of range", "/v1/multiprefix", req("sum", "", []int{0, 9}, 4, []int64{1, 2}), 400, kindBadInput},
		{"negative label", "/v1/multiprefix", req("sum", "", []int{-1, 0}, 4, []int64{1, 2}), 400, kindBadInput},
		{"n too large", "/v1/multiprefix", req("sum", "", make([]int, 65), 4, make([]int64, 65)), 400, kindBadInput},
		{"m too large", "/v1/multiprefix", req("sum", "", labels, 17, values), 400, kindBadInput},
		{"empty batch", "/v1/multiprefix/batch", map[string]any{"op": "sum", "m": 4, "labels": labels}, 400, kindBadInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er errorResponse
			hr := x.post(t, tc.path, tc.body, &er)
			if hr.StatusCode != tc.status || er.Error.Kind != tc.kind {
				t.Fatalf("got %d/%q, want %d/%q (%s)", hr.StatusCode, er.Error.Kind, tc.status, tc.kind, er.Error.Message)
			}
		})
	}

	t.Run("malformed JSON", func(t *testing.T) {
		if status, kind := x.postRaw(t, "/v1/multiprefix", "{nope"); status != http.StatusBadRequest || kind != kindBadInput {
			t.Fatalf("got %d/%q", status, kind)
		}
	})
	// A body valid for every decoding endpoint, so that only what
	// follows it can make a request fail.
	valid, err := json.Marshal(map[string]any{"op": "sum", "m": 4, "labels": labels, "values": values,
		"batch": [][]int64{values}, "full": true})
	if err != nil {
		t.Fatal(err)
	}
	decoding := []string{"/v1/multiprefix", "/v1/multireduce", "/v1/multiprefix/batch",
		"/v1/multireduce/batch", "/v1/update", "/v1/query"}
	t.Run("data after the JSON value", func(t *testing.T) {
		for _, path := range decoding {
			status, kind := x.postRaw(t, path, string(valid)+`{"x":`)
			if status != http.StatusBadRequest || kind != kindBadInput {
				t.Errorf("%s: got %d/%q, want 400/%q", path, status, kind, kindBadInput)
			}
		}
	})
	t.Run("GET rejected", func(t *testing.T) {
		resp, err := http.Get(x.ts.URL + "/v1/multiprefix")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d", resp.StatusCode)
		}
	})
	t.Run("body too large", func(t *testing.T) {
		y := newTestServer(t, Options{MaxBody: 128})
		var er errorResponse
		hr := y.post(t, "/v1/multiprefix", req("sum", "", make([]int, 200), 4, make([]int64, 200)), &er)
		if hr.StatusCode != http.StatusRequestEntityTooLarge || er.Error.Kind != kindTooLarge {
			t.Fatalf("got %d/%q", hr.StatusCode, er.Error.Kind)
		}
	})
	t.Run("body too large after the JSON value", func(t *testing.T) {
		// The value ends inside the limit; the whole body does not.
		y := newTestServer(t, Options{MaxBody: 1024})
		body := string(valid) + strings.Repeat(" ", 4096)
		for _, path := range decoding {
			status, kind := y.postRaw(t, path, body)
			if status != http.StatusRequestEntityTooLarge || kind != kindTooLarge {
				t.Errorf("%s: got %d/%q, want 413/%q", path, status, kind, kindTooLarge)
			}
		}
	})
}

// postRaw sends body as is and returns the status and the error kind.
func (x *testServer) postRaw(t *testing.T, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(x.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var er errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er) // a 200 carries no error kind
	return resp.StatusCode, er.Error.Kind
}

// TestAdmissionShed fills the in-flight pool and asserts excess load
// is shed with 429 + Retry-After instead of queueing.
func TestAdmissionShed(t *testing.T) {
	x := newTestServer(t, Options{MaxInFlight: 2, RetryAfter: 3 * time.Second})
	for i := 0; i < 2; i++ {
		x.s.slots <- struct{}{}
	}
	labels, values := refInputs(8, 4)
	var er errorResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 4, values), &er)
	if hr.StatusCode != http.StatusTooManyRequests || er.Error.Kind != kindOverloaded {
		t.Fatalf("got %d/%q, want 429/%q", hr.StatusCode, er.Error.Kind, kindOverloaded)
	}
	if ra := hr.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if got := x.s.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d", got)
	}
	// Freeing the pool restores service.
	<-x.s.slots
	<-x.s.slots
	var ok computeResponse
	if hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 4, values), &ok); hr.StatusCode != 200 {
		t.Fatalf("after free: status %d", hr.StatusCode)
	}
}

// TestDrain asserts the lifecycle flip: once draining, readiness goes
// 503, compute is rejected typed, and liveness stays 200.
func TestDrain(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, values := refInputs(8, 4)

	get := func(path string) int {
		resp, err := http.Get(x.ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != 200 {
		t.Fatalf("readyz before drain: %d", got)
	}
	x.s.Drain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", got)
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("healthz during drain: %d", got)
	}
	var er errorResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 4, values), &er)
	if hr.StatusCode != http.StatusServiceUnavailable || er.Error.Kind != kindDraining {
		t.Fatalf("compute during drain: %d/%q", hr.StatusCode, er.Error.Kind)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Fatal("drain rejection carries no Retry-After")
	}
}

// TestDeadlineExpired drives a request whose deadline has passed
// before execution and asserts the typed 504.
func TestDeadlineExpired(t *testing.T) {
	x := newTestServer(t, Options{DefaultDeadline: time.Nanosecond})
	labels, values := refInputs(64, 4)
	var er errorResponse
	hr := x.post(t, "/v1/multireduce", req("sum", "", labels, 4, values), &er)
	if hr.StatusCode != http.StatusGatewayTimeout || er.Error.Kind != kindDeadline {
		t.Fatalf("got %d/%q, want 504/%q", hr.StatusCode, er.Error.Kind, kindDeadline)
	}
	if got := x.s.Stats().DeadlineExceeded; got == 0 {
		t.Fatal("deadline counter not incremented")
	}
}

// TestChaosPanicLadder arms a panic in every request's engine pass and
// asserts the degradation ladder serves the answer from the serial
// rung: 200, correct values, fallback reported, counters moving.
func TestChaosPanicLadder(t *testing.T) {
	x := newTestServer(t, Options{Backend: "chunked", ChaosPanicEvery: 1, ChaosSeed: 42})
	labels, values := refInputs(4096, 31)
	want, _ := core.Serial(core.AddInt64, values, labels, 31)
	var resp computeResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 31, values), &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if resp.Fallback != "serial" {
		t.Fatalf("fallback = %q, want serial", resp.Fallback)
	}
	for i := range want.Multi {
		if resp.Multi[i] != want.Multi[i] {
			t.Fatalf("multi[%d] = %d, want %d", i, resp.Multi[i], want.Multi[i])
		}
	}
	st := x.s.Stats()
	if st.ChaosPanics == 0 || st.EnginePanics == 0 || st.SerialFallbacks == 0 || st.SplitRounds == 0 {
		t.Fatalf("ladder counters: %+v", st)
	}
}

// TestChaosPanicNoRetry disables the serial rung and asserts the
// typed engine_panic surfaces instead of a hang or a wrong answer.
func TestChaosPanicNoRetry(t *testing.T) {
	x := newTestServer(t, Options{Backend: "chunked", ChaosPanicEvery: 1, ChaosSeed: 42, NoSerialRetry: true})
	labels, values := refInputs(4096, 31)
	var er errorResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 31, values), &er)
	if hr.StatusCode != http.StatusInternalServerError || er.Error.Kind != kindEnginePanic {
		t.Fatalf("got %d/%q, want 500/%q", hr.StatusCode, er.Error.Kind, kindEnginePanic)
	}
}

// TestChaosCancel arms cancellation on every request and asserts the
// typed 503 with a retry hint.
func TestChaosCancel(t *testing.T) {
	x := newTestServer(t, Options{ChaosCancelEvery: 1})
	labels, values := refInputs(64, 4)
	var er errorResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 4, values), &er)
	if hr.StatusCode != http.StatusServiceUnavailable || er.Error.Kind != kindCanceled {
		t.Fatalf("got %d/%q, want 503/%q", hr.StatusCode, er.Error.Kind, kindCanceled)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Fatal("cancel rejection carries no Retry-After")
	}
}

// TestCoalescing holds a round on a plan, fires concurrent requests at
// the same plan and asserts they (a) all answer correctly and (b) ran
// as one fused round once the held round finished: requests that
// arrive while a round runs fuse into the next one.
func TestCoalescing(t *testing.T) {
	const burst = 16
	x := newTestServer(t, Options{Backend: "sorted", BatchCap: 32, MaxInFlight: 64})
	labels, values := refInputs(2048, 13)
	want, _ := core.Serial(core.AddInt64, values, labels, 13)
	e := pinPlan(t, x.s, "sorted", labels, 13)
	release := holdRound(t, x.s, e, true, values)

	var wg sync.WaitGroup
	coalesced := make([]int, burst)
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var resp computeResponse
			hr := x.post(t, "/v1/multireduce", req("sum", "", labels, 13, values), &resp)
			if hr.StatusCode != http.StatusOK {
				t.Errorf("goroutine %d: status %d", g, hr.StatusCode)
				return
			}
			for k := range want.Reductions {
				if resp.Reductions[k] != want.Reductions[k] {
					t.Errorf("goroutine %d: reductions[%d] = %d, want %d", g, k, resp.Reductions[k], want.Reductions[k])
					return
				}
			}
			coalesced[g] = resp.Coalesced
		}(g)
	}
	waitQueued(t, x.s, e, true, burst)
	release()
	wg.Wait()
	for g, c := range coalesced {
		if c != burst {
			t.Fatalf("goroutine %d: coalesced %d, want all %d queued requests in one round", g, c, burst)
		}
	}
}

// TestVectorReuse runs concurrent requests on several plans, each with
// values of its own, among requests that end early once they have taken
// vectors from the pool: a length mismatch (400), a pinned version
// conflict (409), deadlines that expire while queued behind a held round
// (504) and chaos panics the serial rung answers. A vector handed back
// while an engine still used it, or handed back twice, would give one
// request another's numbers: every 200 must carry core.Serial's answer,
// and the race detector must stay quiet.
func TestVectorReuse(t *testing.T) {
	const workers, rounds = 4, 18
	s := New(Options{Backend: "chunked", ChaosPanicEvery: 5, ChaosSeed: 11, MaxInFlight: 64})
	defer s.Close()
	post := func(path string, body any) (int, []byte) {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		return rec.Code, rec.Body.Bytes()
	}
	type shape struct {
		labels []int
		m      int
	}
	shapes := []shape{{testLabels(1500, 13, 1), 13}, {testLabels(2048, 64, 2), 64}, {testLabels(3000, 7, 3), 7}}

	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := range rounds {
				sh := shapes[rng.Intn(len(shapes))]
				vecs := make([][]int64, 1+rng.Intn(3))
				for k := range vecs {
					vecs[k] = make([]int64, len(sh.labels))
					for j := range vecs[k] {
						vecs[k][j] = rng.Int63n(1<<20) - 1<<19
					}
				}
				body := map[string]any{"op": "sum", "m": sh.m, "labels": sh.labels, "values": vecs[0]}
				path, reduce, status := "/v1/multiprefix", false, http.StatusOK
				switch kind := (g + i) % 6; kind {
				case 1:
					path, reduce = "/v1/multireduce", true
				case 2, 3:
					path, reduce = computeRoutes[kind].path, computeRoutes[kind].reduce
					body["batch"], body["values"] = vecs, nil
				case 4:
					body["values"], status = vecs[0][1:], http.StatusBadRequest
				case 5:
					body["pin_version"], status = 1<<40, http.StatusConflict
				}
				code, resp := post(path, body)
				if code != status {
					t.Errorf("worker %d round %d %s: status %d, want %d: %s", g, i, path, code, status, resp)
					return
				}
				if code != http.StatusOK {
					continue
				}
				var items []batchItem
				if body["batch"] != nil {
					var br batchResponse
					if err := json.Unmarshal(resp, &br); err != nil {
						t.Error(err)
						return
					}
					items = br.Results
				} else {
					var cr computeResponse
					if err := json.Unmarshal(resp, &cr); err != nil {
						t.Error(err)
						return
					}
					items = []batchItem{{Multi: cr.Multi, Reductions: cr.Reductions}}
				}
				if len(items) > len(vecs) {
					t.Errorf("worker %d round %d %s: %d results for %d vectors", g, i, path, len(items), len(vecs))
					return
				}
				for k, it := range items {
					want, err := core.Serial(core.AddInt64, vecs[k], sh.labels, sh.m)
					if err != nil {
						t.Error(err)
						return
					}
					got, ref := it.Multi, want.Multi
					if reduce {
						got, ref = it.Reductions, want.Reductions
					}
					if it.Error != nil || !slices.Equal(got, ref) {
						t.Errorf("worker %d round %d %s vector %d: %+v, not core.Serial's answer", g, i, path, k, it.Error)
						return
					}
				}
			}
		}()
	}

	// Deadlines that expire while their requests queue behind a held
	// round, on a plan of their own.
	const queued = 4
	labels, values := refInputs(1024, 5)
	e := pinPlan(t, s, "chunked", labels, 5)
	release := holdRound(t, s, e, false, values)
	var dwg sync.WaitGroup
	for range queued {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			body := map[string]any{"op": "sum", "m": 5, "labels": labels, "values": values, "deadline_ms": 20}
			if code, resp := post("/v1/multiprefix", body); code != http.StatusGatewayTimeout {
				t.Errorf("queued past its deadline: status %d, want 504: %s", code, resp)
			}
		}()
	}
	waitQueued(t, s, e, false, queued)
	time.Sleep(30 * time.Millisecond) // the queued requests' deadlines pass
	release()
	dwg.Wait()
	wg.Wait()
	if st := s.Stats(); st.DeadlineExceeded < queued || st.VersionConflicts == 0 || st.BadInput == 0 {
		t.Fatalf("early exits: deadline %d, version conflicts %d, bad input %d", st.DeadlineExceeded, st.VersionConflicts, st.BadInput)
	}
}

// TestStatsEndpoint sanity-checks the counter snapshot wire shape.
func TestStatsEndpoint(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, values := refInputs(128, 8)
	for i := 0; i < 3; i++ {
		var resp computeResponse
		if hr := x.post(t, "/v1/multireduce", req("sum", "", labels, 8, values), &resp); hr.StatusCode != 200 {
			t.Fatalf("status %d", hr.StatusCode)
		}
	}
	resp, err := http.Get(x.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 3 || st.OK < 3 || st.CacheMisses != 1 || st.CacheHits < 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDefaultBackendOverride asserts the per-request backend override
// is honored and reflected in the response.
func TestDefaultBackendOverride(t *testing.T) {
	x := newTestServer(t, Options{Backend: "serial"})
	labels, values := refInputs(256, 8)
	var resp computeResponse
	hr := x.post(t, "/v1/multiprefix", req("sum", "sorted", labels, 8, values), &resp)
	if hr.StatusCode != 200 || resp.Backend != "sorted" {
		t.Fatalf("status %d backend %q", hr.StatusCode, resp.Backend)
	}
	if x.s.cache.plans() != 1 {
		t.Fatalf("plans = %d", x.s.cache.plans())
	}
	key := fmt.Sprintf("%v", x.s.cache.lru.Front().Value.(*planEntry).key.Backend)
	if key != "sorted" {
		t.Fatalf("cached backend %q", key)
	}
}
