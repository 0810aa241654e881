package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// entryPlans returns the plans of the cache's live entries.
func (c *planCache) entryPlans() []*backend.Plan[int64] {
	c.mu.Lock()
	defer c.mu.Unlock()
	var plans []*backend.Plan[int64]
	for _, e := range c.entries {
		plans = append(plans, e.plan)
	}
	return plans
}

// postBytes posts body to path and returns the status and the response
// body.
func (x *testServer) postBytes(t *testing.T, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(x.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestAutoTrialAtFourthHit: a cold auto request builds the rule's
// engine and runs no trial; the request that makes the plan's 4th cache
// hit runs it, once. Every hit counts, whichever route found the plan,
// and a trial changes no answer.
func TestAutoTrialAtFourthHit(t *testing.T) {
	const n, m = 4096, 64
	x := newTestServer(t, Options{Workers: 2})
	labels := testLabels(n, m, 1)
	_, values := refInputs(n, m)
	body, want := multiprefixBody(t, labels, m, values)
	var first []byte
	for k := 1; k <= 5; k++ {
		status, got := x.postBytes(t, "/v1/multiprefix", body)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", k, status, got)
		}
		if k == 1 {
			first = got
			var resp computeResponse
			if err := json.Unmarshal(got, &resp); err != nil || !slices.Equal(resp.Multi, want) {
				t.Fatalf("first answer differs from serial (%v)", err)
			}
		} else if !bytes.Equal(got, first) {
			t.Fatalf("request %d answered %d bytes unlike the first's %d", k, len(got), len(first))
		}
		st := x.s.Stats()
		if wantTrials := uint64(max(0, k-4)); st.AutoTrials != wantTrials {
			t.Fatalf("after request %d (%d hits): auto_trials %d, want %d", k, st.CacheHits, st.AutoTrials, wantTrials)
		}
	}
	plans := x.s.cache.entryPlans()
	if len(plans) != 1 {
		t.Fatalf("%d cached plans, want 1", len(plans))
	}
	tr, ok := plans[0].Trial()
	if !ok {
		t.Fatal("promoted plan records no trial")
	}
	if st := x.s.Stats(); st.AutoSwitches != map[string]uint64{"serial": 0, "chunked": 1}[tr.Pick] {
		t.Fatalf("trial picked %s, auto_switches %d", tr.Pick, st.AutoSwitches)
	}
	_, metrics := x.get(t, "/metrics")
	for _, line := range []string{"mp_auto_trials_total 1\n", "mp_auto_switches_total "} {
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}

	// The stateful routes and the digest path count too: bind builds,
	// then a query, a compute found by digest and one found by its text
	// are hits 1-3, and the next query is the 4th.
	other := testLabels(n, m, 2)
	body, want = multiprefixBody(t, other, m, values)
	stateful := func(path string, req map[string]any) func() {
		return func() {
			req["op"], req["m"], req["labels"] = "sum", m, other
			if resp := x.post(t, path, req, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", path, resp.StatusCode)
			}
		}
	}
	compute := func() {
		if err := x.postMulti(body, want); err != nil {
			t.Fatal(err)
		}
	}
	steps := []func(){
		stateful("/v1/update", map[string]any{"values": values}),
		stateful("/v1/query", map[string]any{"indices": []int{7}}),
		compute,
		compute,
		stateful("/v1/query", map[string]any{"full": true}),
	}
	for k, step := range steps {
		step()
		if got, wantTrials := x.s.Stats().AutoTrials, uint64(1+max(0, k-3)); got != wantTrials {
			t.Fatalf("second vector, request %d: auto_trials %d, want %d", k+1, got, wantTrials)
		}
	}
	if st := x.s.Stats(); st.LabelTextHits == 0 || st.QueryRequests != 2 {
		t.Fatalf("stats %+v: want text hits and two queries", st)
	}
}

// TestAutoTrialChurn: with room for one plan and two label vectors
// alternating, every request misses and builds, so no plan reaches its
// 4th hit and no trial runs.
func TestAutoTrialChurn(t *testing.T) {
	const n, m = 4096, 64
	x := newTestServer(t, Options{Workers: 2, PlanCacheCap: 1})
	_, values := refInputs(n, m)
	var bodies [2][]byte
	var wants [2][]int64
	for i := range bodies {
		bodies[i], wants[i] = multiprefixBody(t, testLabels(n, m, i+10), m, values)
	}
	const requests = 12
	for k := range requests {
		if err := x.postMulti(bodies[k%2], wants[k%2]); err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
	st := x.s.Stats()
	if st.CacheMisses != requests || st.CacheHits != 0 || st.AutoTrials != 0 {
		t.Fatalf("misses %d, hits %d, auto_trials %d; want %d misses and no hit or trial",
			st.CacheMisses, st.CacheHits, st.AutoTrials, requests)
	}
	for _, p := range x.s.cache.entryPlans() {
		if tr, ok := p.Trial(); ok {
			t.Fatalf("churned plan records a trial: %v", tr)
		}
	}
}

// TestPromoteUnderTraffic promotes a plan while compute and stateful
// traffic runs on it: compute clients, a writer binding and updating
// its resident vector and a reader querying it. Every answer stays
// right and the plan's trial runs exactly once.
func TestPromoteUnderTraffic(t *testing.T) {
	const n, m = 4096, 64
	x := newTestServer(t, Options{Workers: 2})
	labels := testLabels(n, m, 3)
	_, values := refInputs(n, m)
	body, want := multiprefixBody(t, labels, m, values)
	// The first request builds the plan; the traffic below makes its
	// hits concurrently.
	if err := x.postMulti(body, want); err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range rounds {
				if err := x.postMulti(body, want); err != nil {
					t.Errorf("compute client %d, request %d: %v", c, k, err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := range rounds {
			var up updateResponse
			resp := x.post(t, "/v1/update", map[string]any{
				"op": "sum", "m": m, "labels": labels, "values": values,
				"updates": []map[string]any{{"i": k, "v": 1}},
			}, &up)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("update %d: status %d", k, resp.StatusCode)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for k := range rounds {
			var q queryResponse
			resp := x.post(t, "/v1/query", map[string]any{
				"op": "sum", "m": m, "labels": labels, "indices": []int{n - 1},
			}, &q)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				t.Errorf("query %d: status %d", k, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// The last writer's state: values with element rounds-1 set to 1.
	state := append([]int64(nil), values...)
	state[rounds-1] = 1
	ref, err := core.Serial(core.AddInt64, state, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	var q queryResponse
	if resp := x.post(t, "/v1/query", map[string]any{"op": "sum", "m": m, "labels": labels, "full": true}, &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("final query: status %d", resp.StatusCode)
	}
	for i := range ref.Multi {
		if q.Multi[i] != ref.Multi[i] {
			t.Fatalf("final multi[%d] = %d, want %d", i, q.Multi[i], ref.Multi[i])
		}
	}
	if err := x.postMulti(body, want); err != nil {
		t.Fatal(err)
	}
	if st := x.s.Stats(); st.AutoTrials != 1 || st.CacheMisses != 1 {
		t.Fatalf("auto_trials %d, misses %d; want one trial on the one plan", st.AutoTrials, st.CacheMisses)
	}
}
