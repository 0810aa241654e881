package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"multiprefix/internal/core"
)

// get fetches path and returns the status and body.
func (x *testServer) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(x.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestHugeDeadlineClamped posts deadline_ms values whose nanosecond
// count overflows time.Duration to a compute route, /v1/update and
// /v1/query: each is clamped to MaxDeadline and answers 200, where a
// product taken before the clamp wrapped negative and expired at once.
func TestHugeDeadlineClamped(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, values := refInputs(3, 2)
	for _, ms := range []int64{1e13, math.MaxInt64} {
		for _, tc := range []struct {
			path string
			body map[string]any
		}{
			{"/v1/multiprefix", map[string]any{"op": "sum", "m": 2, "labels": labels, "values": values, "deadline_ms": ms}},
			{"/v1/update", map[string]any{"op": "sum", "m": 2, "labels": labels, "values": values, "deadline_ms": ms}},
			{"/v1/query", map[string]any{"op": "sum", "m": 2, "labels": labels, "full": true, "deadline_ms": ms}},
		} {
			if tc.path == "/v1/query" { // bound without a deadline, so that the query alone is tested
				bind := map[string]any{"op": "sum", "m": 2, "labels": labels, "values": values}
				if resp := x.post(t, "/v1/update", bind, nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("bind: status %d", resp.StatusCode)
				}
			}
			var er errorResponse
			if resp := x.post(t, tc.path, tc.body, &er); resp.StatusCode != http.StatusOK {
				t.Errorf("%s deadline_ms=%d: %d/%s %q, want 200", tc.path, ms, resp.StatusCode, er.Error.Kind, er.Error.Message)
			}
		}
	}
}

// TestUpdateQueryComputeDeadline: every route answers the typed 504
// once its deadline has passed — the four compute routes, /v1/update
// with and without values, and /v1/query's point, label and full
// reads — even where no engine would run: a point update, a clean
// snapshot or a Fenwick read. The bind that sets up the stateful rows
// carries its own generous deadline, so only the rows expire.
func TestUpdateQueryComputeDeadline(t *testing.T) {
	x := newTestServer(t, Options{DefaultDeadline: time.Nanosecond})
	const n, m = 64, 8
	labels, values := refInputs(n, m)
	bind := map[string]any{"op": "sum", "backend": "sorted", "m": m, "labels": labels, "values": values, "deadline_ms": 10000}
	if resp := x.post(t, "/v1/update", bind, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("bind: status %d", resp.StatusCode)
	}
	stateful := func(k string, v any) map[string]any {
		return map[string]any{"op": "sum", "backend": "sorted", "m": m, "labels": labels, k: v}
	}
	batch := stateful("batch", [][]int64{values, values})
	for _, row := range []struct {
		name, route string
		body        map[string]any
	}{
		{"multiprefix", "/v1/multiprefix", req("sum", "sorted", labels, m, values)},
		{"multireduce", "/v1/multireduce", req("sum", "sorted", labels, m, values)},
		{"multiprefix batch", "/v1/multiprefix/batch", batch},
		{"multireduce batch", "/v1/multireduce/batch", batch},
		{"update", "/v1/update", stateful("updates", []map[string]any{{"i": 3, "v": 42}})},
		{"query point", "/v1/query", stateful("indices", []int{3})},
		{"query label", "/v1/query", stateful("reduce_labels", []int{2})},
		{"query full", "/v1/query", stateful("full", true)},
		{"update with values", "/v1/update", stateful("values", values)},
	} {
		before := x.s.Stats().DeadlineExceeded
		var er errorResponse
		resp := x.post(t, row.route, row.body, &er)
		if resp.StatusCode != http.StatusGatewayTimeout || er.Error.Kind != kindDeadline {
			t.Errorf("%s: got %d/%q, want 504/%q", row.name, resp.StatusCode, er.Error.Kind, kindDeadline)
			continue
		}
		if x.s.Stats().DeadlineExceeded == before {
			t.Errorf("%s: deadline counter not incremented", row.name)
		}
	}
}

func TestUpdateQueryEndpoints(t *testing.T) {
	x := newTestServer(t, Options{})
	const n, m = 64, 8
	labels, values := refInputs(n, m)

	// Bind the resident vector.
	var up updateResponse
	resp := x.post(t, "/v1/update", map[string]any{
		"op": "sum", "backend": "sorted", "m": m, "labels": labels, "values": values,
	}, &up)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bind: status %d", resp.StatusCode)
	}
	if !up.Bound || up.Version != 1 || up.Mode != "fenwick-int64" {
		t.Fatalf("bind response: %+v", up)
	}

	// Point updates bump the version once each.
	cur := append([]int64(nil), values...)
	var up2 updateResponse
	resp = x.post(t, "/v1/update", map[string]any{
		"op": "sum", "backend": "sorted", "m": m, "labels": labels,
		"updates": []map[string]any{{"i": 3, "v": 42}, {"i": 10, "v": -5}},
	}, &up2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", resp.StatusCode)
	}
	if up2.Applied != 2 || up2.Version != 3 || up2.Bound {
		t.Fatalf("update response: %+v", up2)
	}
	cur[3], cur[10] = 42, -5
	want, err := core.Serial(core.AddInt64, cur, labels, m)
	if err != nil {
		t.Fatal(err)
	}

	// Pinned multi-point read: prefixes, reductions and the full state.
	indices := make([]int, n)
	reduceLabels := make([]int, m)
	for i := range indices {
		indices[i] = i
	}
	for c := range reduceLabels {
		reduceLabels[c] = c
	}
	var q queryResponse
	resp = x.post(t, "/v1/query", map[string]any{
		"op": "sum", "backend": "sorted", "m": m, "labels": labels,
		"indices": indices, "reduce_labels": reduceLabels, "full": true,
		"pin_version": 3,
	}, &q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	if q.Version != 3 || q.Mode != "fenwick-int64" {
		t.Fatalf("query response meta: %+v", q)
	}
	for i := range indices {
		if q.Prefix[i] != want.Multi[i] || q.Multi[i] != want.Multi[i] {
			t.Fatalf("query multi[%d] = %d/%d, want %d", i, q.Prefix[i], q.Multi[i], want.Multi[i])
		}
	}
	for c := range reduceLabels {
		if q.Reduce[c] != want.Reductions[c] || q.Reductions[c] != want.Reductions[c] {
			t.Fatalf("query red[%d] = %d/%d, want %d", c, q.Reduce[c], q.Reductions[c], want.Reductions[c])
		}
	}

	// Stale pins are rejected typed on every stateful surface.
	var e errorResponse
	resp = x.post(t, "/v1/query", map[string]any{
		"op": "sum", "backend": "sorted", "m": m, "labels": labels,
		"indices": []int{0}, "pin_version": 2,
	}, &e)
	if resp.StatusCode != http.StatusConflict || e.Error.Kind != kindVersionConflict {
		t.Fatalf("stale query pin: status %d kind %q", resp.StatusCode, e.Error.Kind)
	}
	resp = x.post(t, "/v1/update", map[string]any{
		"op": "sum", "backend": "sorted", "m": m, "labels": labels,
		"updates": []map[string]any{{"i": 0, "v": 1}}, "pin_version": 99,
	}, &e)
	if resp.StatusCode != http.StatusConflict || e.Error.Kind != kindVersionConflict {
		t.Fatalf("stale update pin: status %d kind %q", resp.StatusCode, e.Error.Kind)
	}

	// Compute requests thread the pin through the coalescer.
	var cr computeResponse
	resp = x.post(t, "/v1/multiprefix", map[string]any{
		"op": "sum", "backend": "sorted", "m": m, "labels": labels,
		"values": cur, "pin_version": 3,
	}, &cr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned compute: status %d", resp.StatusCode)
	}
	resp = x.post(t, "/v1/multiprefix", map[string]any{
		"op": "sum", "backend": "sorted", "m": m, "labels": labels,
		"values": cur, "pin_version": 7,
	}, &e)
	if resp.StatusCode != http.StatusConflict || e.Error.Kind != kindVersionConflict {
		t.Fatalf("stale compute pin: status %d kind %q", resp.StatusCode, e.Error.Kind)
	}

	st := x.s.Stats()
	if st.UpdateRequests < 2 || st.QueryRequests < 2 || st.UpdatesApplied != 2 || st.VersionConflicts < 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStatefulNotBound(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, _ := refInputs(16, 4)
	var e errorResponse
	resp := x.post(t, "/v1/query", map[string]any{
		"op": "sum", "m": 4, "labels": labels, "indices": []int{0},
	}, &e)
	if resp.StatusCode != http.StatusConflict || e.Error.Kind != kindNotBound {
		t.Fatalf("unbound query: status %d kind %q", resp.StatusCode, e.Error.Kind)
	}
	resp = x.post(t, "/v1/update", map[string]any{
		"op": "sum", "m": 4, "labels": labels,
		"updates": []map[string]any{{"i": 0, "v": 1}},
	}, &e)
	if resp.StatusCode != http.StatusConflict || e.Error.Kind != kindNotBound {
		t.Fatalf("unbound update: status %d kind %q", resp.StatusCode, e.Error.Kind)
	}
	if st := x.s.Stats(); st.NotBound != 2 {
		t.Fatalf("not_bound counter = %d, want 2", st.NotBound)
	}
}

// TestEvictionDiscardsResidentState pins the Key-vs-Version contract
// end to end: eviction closes the plan and takes the resident vector
// with it, so the next stateful request on those labels sees not_bound
// and must re-bind — never a stale resurrected state.
func TestEvictionDiscardsResidentState(t *testing.T) {
	x := newTestServer(t, Options{PlanCacheCap: 1})
	const m = 4
	labelsA, values := refInputs(32, m)
	labelsB := make([]int, 32) // all-zero: a different plan key

	var up updateResponse
	if resp := x.post(t, "/v1/update", map[string]any{
		"op": "sum", "m": m, "labels": labelsA, "values": values,
	}, &up); resp.StatusCode != http.StatusOK {
		t.Fatalf("bind: status %d", resp.StatusCode)
	}
	// A compute on different labels evicts plan A (capacity 1).
	if resp := x.post(t, "/v1/multiprefix", req("sum", "", labelsB, m, values), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("evicting compute failed")
	}
	var e errorResponse
	resp := x.post(t, "/v1/query", map[string]any{
		"op": "sum", "m": m, "labels": labelsA, "indices": []int{0},
	}, &e)
	if resp.StatusCode != http.StatusConflict || e.Error.Kind != kindNotBound {
		t.Fatalf("post-eviction query: status %d kind %q, want not_bound", resp.StatusCode, e.Error.Kind)
	}
	if st := x.s.Stats(); st.CacheEvictions == 0 {
		t.Fatal("expected an eviction")
	}
}

// TestStatefulChaosRetriesHookFree arms chaos on every request and
// drives the stateful endpoints' re-run tier (max): the injected engine
// panic is absorbed by the hook-free retry on the same plan.
func TestStatefulChaosRetriesHookFree(t *testing.T) {
	x := newTestServer(t, Options{ChaosPanicEvery: 1, ChaosSeed: 5})
	const n, m = 256, 8
	labels, values := refInputs(n, m)
	var up updateResponse
	if resp := x.post(t, "/v1/update", map[string]any{
		"op": "max", "backend": "sorted", "m": m, "labels": labels, "values": values,
	}, &up); resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos bind: status %d", resp.StatusCode)
	}
	if up.Mode != "rerun" {
		t.Fatalf("max mode = %q, want rerun", up.Mode)
	}
	// Dirty the state, then query: the refresh runs the engine under
	// the chaos hook, panics, and must heal hook-free.
	if resp := x.post(t, "/v1/update", map[string]any{
		"op": "max", "backend": "sorted", "m": m, "labels": labels,
		"updates": []map[string]any{{"i": 7, "v": 999}},
	}, &up); resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos update: status %d", resp.StatusCode)
	}
	var q queryResponse
	if resp := x.post(t, "/v1/query", map[string]any{
		"op": "max", "backend": "sorted", "m": m, "labels": labels,
		"indices": []int{200}, "reduce_labels": []int{7 % m},
	}, &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos query: status %d", resp.StatusCode)
	}
	cur := append([]int64(nil), values...)
	cur[7] = 999
	want, err := core.Serial(core.MaxInt64, cur, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	if q.Prefix[0] != want.Multi[200] || q.Reduce[0] != want.Reductions[7%m] {
		t.Fatalf("chaos query answers %v/%v, want %v/%v",
			q.Prefix[0], q.Reduce[0], want.Multi[200], want.Reductions[7%m])
	}
	if st := x.s.Stats(); st.EnginePanics == 0 {
		t.Fatalf("chaos never fired: %+v", st)
	}
	// A pinned re-bind heals the same way: a bind that panics has moved
	// the plan one version on, and the hook-free retry pins that
	// version, so it must not conflict with its own first attempt.
	panics := x.s.Stats().EnginePanics
	rebind := map[string]any{
		"op": "max", "backend": "sorted", "m": m, "labels": labels, "values": values,
		"pin_version": q.Version,
	}
	if resp := x.post(t, "/v1/update", rebind, &up); resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned chaos re-bind: status %d", resp.StatusCode)
	}
	healed := x.s.Stats().EnginePanics - panics
	if want := q.Version + 1 + healed; up.Version != want {
		t.Fatalf("pinned re-bind left version %d, want %d (%d panics healed)", up.Version, want, healed)
	}
	var e errorResponse
	if resp := x.post(t, "/v1/update", rebind, &e); resp.StatusCode != http.StatusConflict || e.Error.Kind != kindVersionConflict {
		t.Fatalf("stale pinned re-bind: status %d kind %q", resp.StatusCode, e.Error.Kind)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	x := newTestServer(t, Options{})
	const n, m = 64, 8
	labels, values := refInputs(n, m)
	if resp := x.post(t, "/v1/update", map[string]any{
		"op": "sum", "m": m, "labels": labels, "values": values,
		"updates": []map[string]any{{"i": 1, "v": 5}},
	}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", resp.StatusCode)
	}
	if resp := x.post(t, "/v1/query", map[string]any{
		"op": "sum", "m": m, "labels": labels, "indices": []int{1},
	}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	status, body := x.get(t, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	for _, want := range []string{
		"mp_requests_total 2",
		"mp_plan_cache_misses_total 1",
		"mp_plan_cache_text_hits_total 0",
		"mp_update_requests_total 1",
		"mp_query_requests_total 1",
		"mp_updates_applied_total 1",
		"mp_plan_binds_total 1",
		"mp_plan_updates_total 1",
		"mp_plan_fenwick_updates_total 1",
		"mp_bound_plans 1",
		"# TYPE mp_plan_reruns_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestWarmPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.json")
	const m = 8
	labelsA, values := refInputs(64, m)
	labelsB, _ := refInputs(48, m)

	a := newTestServer(t, Options{})
	if resp := a.post(t, "/v1/multiprefix", req("sum", "sorted", labelsA, m, values), nil); resp.StatusCode != http.StatusOK {
		t.Fatal("compute A failed")
	}
	if resp := a.post(t, "/v1/multireduce", req("max", "", labelsB, m, values[:48]), nil); resp.StatusCode != http.StatusOK {
		t.Fatal("compute B failed")
	}
	a.s.Drain()
	if err := a.s.PersistPlansToFile(path); err != nil {
		t.Fatalf("persist: %v", err)
	}

	b := newTestServer(t, Options{})
	b.s.BeginWarm()
	if status, body := b.get(t, "/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, "warming") {
		t.Fatalf("readyz while warming: %d %s", status, body)
	}
	warmed, err := b.s.WarmFromFile(path)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warmed != 2 {
		t.Fatalf("warmed %d plans, want 2", warmed)
	}
	if status, _ := b.get(t, "/readyz"); status != http.StatusOK {
		t.Fatalf("readyz after warming: %d", status)
	}
	st := b.s.Stats()
	if st.WarmedPlans != 2 || st.CachePlans != 2 || st.CacheMisses != 2 {
		t.Fatalf("warm stats: %+v", st)
	}
	// Traffic matching a warmed plan is a cache hit, not a build.
	if resp := b.post(t, "/v1/multiprefix", req("sum", "sorted", labelsA, m, values), nil); resp.StatusCode != http.StatusOK {
		t.Fatal("post-warm compute failed")
	}
	st = b.s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("post-warm stats: %+v", st)
	}

	// A missing file is a clean first boot, and readiness still flips.
	c := newTestServer(t, Options{})
	c.s.BeginWarm()
	warmed, err = c.s.WarmFromFile(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || warmed != 0 {
		t.Fatalf("missing warm file: %d, %v", warmed, err)
	}
	if status, _ := c.get(t, "/readyz"); status != http.StatusOK {
		t.Fatalf("readyz after empty warm: %d", status)
	}
}

// TestConcurrentUpdateRunEvict hammers one server with mixed stateful
// and compute traffic across more plans than the cache holds, under
// the race detector in make race-matrix: updates and queries on a hot
// label set, compute churn on cold sets forcing evictions. Every
// response must be a success or a typed 409 (eviction legitimately
// discards resident state mid-stream).
func TestConcurrentUpdateRunEvict(t *testing.T) {
	x := newTestServer(t, Options{PlanCacheCap: 2})
	const n, m = 64, 4
	hot, values := refInputs(n, m)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // stateful writer: re-binds whenever eviction unbinds
		defer wg.Done()
		for k := 0; k < 40; k++ {
			var e errorResponse
			resp := x.post(t, "/v1/update", map[string]any{
				"op": "sum", "m": m, "labels": hot, "values": values,
				"updates": []map[string]any{{"i": k % n, "v": k}},
			}, &e)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("update %d: status %d kind %q", k, resp.StatusCode, e.Error.Kind)
				return
			}
		}
	}()
	go func() { // stateful reader
		defer wg.Done()
		for k := 0; k < 40; k++ {
			var e errorResponse
			resp := x.post(t, "/v1/query", map[string]any{
				"op": "sum", "m": m, "labels": hot, "indices": []int{k % n},
			}, &e)
			if resp.StatusCode != http.StatusOK &&
				!(resp.StatusCode == http.StatusConflict && e.Error.Kind == kindNotBound) {
				t.Errorf("query %d: status %d kind %q", k, resp.StatusCode, e.Error.Kind)
				return
			}
		}
	}()
	go func() { // compute churn over distinct label vectors
		defer wg.Done()
		for k := 0; k < 40; k++ {
			labels := make([]int, n)
			for i := range labels {
				labels[i] = (i + k) % m
			}
			if resp := x.post(t, "/v1/multiprefix", req("sum", "", labels, m, values), nil); resp.StatusCode != http.StatusOK {
				t.Errorf("compute %d: status %d", k, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// The server must still be fully functional: metrics scrape plus a
	// final bind-and-query round-trip.
	if status, _ := x.get(t, "/metrics"); status != http.StatusOK {
		t.Fatalf("/metrics after churn: %d", status)
	}
	var up updateResponse
	if resp := x.post(t, "/v1/update", map[string]any{
		"op": "sum", "m": m, "labels": hot, "values": values,
	}, &up); resp.StatusCode != http.StatusOK {
		t.Fatalf("final bind failed")
	}
	var q queryResponse
	if resp := x.post(t, "/v1/query", map[string]any{
		"op": "sum", "m": m, "labels": hot, "full": true, "pin_version": up.Version,
	}, &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("final query failed")
	}
	if q.Version != up.Version {
		t.Fatalf("final version %d != %d", q.Version, up.Version)
	}
	want, err := core.Serial(core.AddInt64, values, hot, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Multi {
		if q.Multi[i] != want.Multi[i] {
			t.Fatalf("final multi[%d] = %d, want %d", i, q.Multi[i], want.Multi[i])
		}
	}
}

// TestPinnedUpdateSingleWinner races pinned updates: each round, four
// clients post an update pinned to the version the previous round's
// winner left, through the in-process handler. The plan checks the pin
// under its own lock, so exactly one update wins each round; every
// loser gets 409 version_conflict and changes nothing.
func TestPinnedUpdateSingleWinner(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.Close)
	h := s.Handler()
	const n, m, clients, rounds = 32, 4, 4, 300
	labels, values := refInputs(n, m)
	post := func(body map[string]any) (int, []byte) {
		b, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(b)))
		return rec.Code, rec.Body.Bytes()
	}
	code, body := post(map[string]any{"op": "sum", "m": m, "labels": labels, "values": values})
	var up updateResponse
	if code != http.StatusOK || json.Unmarshal(body, &up) != nil {
		t.Fatalf("bind: status %d body %s", code, body)
	}
	cur := append([]int64(nil), values...)
	version := up.Version
	for r := 0; r < rounds; r++ {
		start := make(chan struct{})
		codes := make([]int, clients)
		bodies := make([][]byte, clients)
		var wg sync.WaitGroup
		for g := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				codes[g], bodies[g] = post(map[string]any{
					"op": "sum", "m": m, "labels": labels, "pin_version": version,
					"updates": []map[string]any{{"i": g, "v": r*clients + g}},
				})
			}()
		}
		close(start)
		wg.Wait()
		winner := -1
		for g := range clients {
			switch codes[g] {
			case http.StatusOK:
				if winner >= 0 {
					t.Fatalf("round %d: clients %d and %d both applied an update pinned to version %d", r, winner, g, version)
				}
				winner = g
				if json.Unmarshal(bodies[g], &up) != nil || up.Version != version+1 {
					t.Fatalf("round %d: winner body %s, want version %d", r, bodies[g], version+1)
				}
			case http.StatusConflict:
				var e errorResponse
				if json.Unmarshal(bodies[g], &e) != nil || e.Error.Kind != kindVersionConflict {
					t.Fatalf("round %d: loser body %s, want version_conflict", r, bodies[g])
				}
			default:
				t.Fatalf("round %d: status %d body %s", r, codes[g], bodies[g])
			}
		}
		if winner < 0 {
			t.Fatalf("round %d: no update pinned to version %d applied", r, version)
		}
		cur[winner] = int64(r*clients + winner)
		version++
	}
	// The resident state holds exactly the winners' values.
	rec := httptest.NewRecorder()
	b, _ := json.Marshal(map[string]any{"op": "sum", "m": m, "labels": labels, "full": true, "pin_version": version})
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b)))
	var q queryResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &q) != nil {
		t.Fatalf("final query: status %d body %s", rec.Code, rec.Body.Bytes())
	}
	want, err := core.Serial(core.AddInt64, cur, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Multi {
		if q.Multi[i] != want.Multi[i] {
			t.Fatalf("final multi[%d] = %d, want %d", i, q.Multi[i], want.Multi[i])
		}
	}
	if st := s.Stats(); st.VersionConflicts != uint64(rounds*(clients-1)) {
		t.Fatalf("version conflicts = %d, want %d", st.VersionConflicts, rounds*(clients-1))
	}
}
