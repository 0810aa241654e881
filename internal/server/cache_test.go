package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

func testLabels(n, m, salt int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = (i*3 + salt) % m
	}
	return labels
}

// TestCacheSingleFlight launches many concurrent cold acquires of one
// key and asserts exactly one plan build happened.
func TestCacheSingleFlight(t *testing.T) {
	var st stats
	c := newPlanCache(8, 1, &st)
	defer c.closeAll()
	labels := testLabels(4096, 17, 0)

	const goroutines = 16
	var wg sync.WaitGroup
	entries := make([]*planEntry, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e, err := c.acquire(context.Background(), "chunked", core.AddInt64, labels, 17)
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			entries[g] = e
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st.cacheMisses.Load() != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", st.cacheMisses.Load())
	}
	if st.cacheHits.Load() != goroutines-1 {
		t.Fatalf("hits = %d, want %d", st.cacheHits.Load(), goroutines-1)
	}
	for g := 1; g < goroutines; g++ {
		if entries[g] != entries[0] {
			t.Fatalf("goroutine %d got a different entry", g)
		}
	}
	for _, e := range entries {
		c.release(e)
	}
	if c.plans() != 1 {
		t.Fatalf("plans = %d", c.plans())
	}
}

// TestCacheLRUEviction fills the cache beyond capacity and asserts
// the least-recently-used unpinned entry is evicted and its plan
// closed, while pinned entries survive any pressure.
func TestCacheLRUEviction(t *testing.T) {
	var st stats
	c := newPlanCache(2, 1, &st)
	defer c.closeAll()

	e0, err := c.acquire(context.Background(), "serial", core.AddInt64, testLabels(64, 4, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	c.release(e0)
	e1, err := c.acquire(context.Background(), "serial", core.AddInt64, testLabels(64, 4, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	c.release(e1)
	// Third key: capacity 2, so the LRU tail (e0) must go.
	e2, err := c.acquire(context.Background(), "serial", core.AddInt64, testLabels(64, 4, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(e2)
	if c.plans() != 2 {
		t.Fatalf("plans = %d, want 2", c.plans())
	}
	if st.cacheEvictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", st.cacheEvictions.Load())
	}
	if !e0.dead || e0.plan != nil {
		t.Fatal("evicted entry not closed")
	}
	if e1.dead || e2.dead {
		t.Fatal("wrong victim: e1/e2 should survive")
	}

	// A pinned entry is never evicted: pin e1 and e2, then add keys.
	e1b, err := c.acquire(context.Background(), "serial", core.AddInt64, testLabels(64, 4, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(e1b)
	for salt := 3; salt < 6; salt++ {
		e, err := c.acquire(context.Background(), "serial", core.AddInt64, testLabels(64, 4, salt), 4)
		if err != nil {
			t.Fatal(err)
		}
		c.release(e)
	}
	if e1b.dead || e2.dead {
		t.Fatal("pinned entry was evicted")
	}
}

// TestCachePinnedSurvivesPressure overflows a capacity-1 cache while
// the overflow entry is pinned: eviction must skip it (the cache may
// exceed capacity while pins exist), the plan stays usable, and only
// after the pin drops does the next insertion evict and close it.
func TestCachePinnedSurvivesPressure(t *testing.T) {
	var st stats
	c := newPlanCache(1, 1, &st)
	defer c.closeAll()
	labels := testLabels(256, 8, 0)

	e0, err := c.acquire(context.Background(), "chunked", core.AddInt64, labels, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Over capacity while e0 is pinned: e0 must survive.
	e1, err := c.acquire(context.Background(), "chunked", core.AddInt64, testLabels(256, 8, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	c.release(e1)
	if e0.dead {
		t.Fatal("pinned entry was evicted")
	}
	if c.plans() != 2 {
		t.Fatalf("plans = %d, want 2 (pinned overflow retained)", c.plans())
	}
	// The pinned plan still answers under pressure.
	values := make([]int64, 256)
	for i := range values {
		values[i] = int64(i)
	}
	dst := [1][]int64{make([]int64, 8)}
	src := [1][]int64{values}
	if err := e0.plan.ReduceBatch(dst[:], src[:]); err != nil {
		t.Fatalf("reduce on pinned plan under pressure: %v", err)
	}
	// Pin dropped: the next insertion trims the overflow back to
	// capacity, closing the now-unpinned entries.
	c.release(e0)
	e2, err := c.acquire(context.Background(), "chunked", core.AddInt64, testLabels(256, 8, 2), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(e2)
	if !e0.dead || e0.plan != nil {
		t.Fatal("released overflow entry not evicted and closed")
	}
	if c.plans() != 1 {
		t.Fatalf("plans = %d after trim, want 1", c.plans())
	}
}

// TestCacheDigestCollision forges a digest collision (two distinct
// label vectors under one key) and asserts the second caller gets a
// correct private plan, never the cached one: once against a built
// entry, and once against an entry still building, whose labels the
// caller can only compare after the build.
func TestCacheDigestCollision(t *testing.T) {
	var st stats
	c := newPlanCache(8, 1, &st)
	defer c.closeAll()
	labelsA := testLabels(128, 8, 0)
	labelsB := testLabels(128, 8, 3) // different vector

	eA, err := c.acquire(context.Background(), "serial", core.AddInt64, labelsA, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release(eA)
	// Re-register A's entry under B's key: from here on, a lookup for
	// labelsB hits an entry whose stored labels differ — exactly the
	// digest-collision shape.
	keyB := backend.KeyFor("serial", core.AddInt64.Name, labelsB, 8)
	c.mu.Lock()
	c.entries[keyB] = eA
	c.mu.Unlock()

	eB, err := c.acquire(context.Background(), "serial", core.AddInt64, labelsB, 8)
	if err != nil {
		t.Fatalf("collision acquire: %v", err)
	}
	if eB == eA {
		t.Fatal("collision served the cached plan for different labels")
	}
	if !eB.dead {
		t.Fatal("collision plan should be private (dead => closed on release)")
	}
	values := make([]int64, 128)
	for i := range values {
		values[i] = 1
	}
	dst := [1][]int64{make([]int64, 8)}
	src := [1][]int64{values}
	if err := eB.plan.ReduceBatch(dst[:], src[:]); err != nil {
		t.Fatal(err)
	}
	want, _ := core.Serial(core.AddInt64, values, labelsB, 8)
	for k := range want.Reductions {
		if dst[0][k] != want.Reductions[k] {
			t.Fatalf("collision answer wrong at %d: %d != %d", k, dst[0][k], want.Reductions[k])
		}
	}
	c.release(eB)
	if eB.plan != nil {
		t.Fatal("private collision plan not closed on release")
	}
	// Undo the forgery so closeAll doesn't double-close eA.
	c.mu.Lock()
	delete(c.entries, keyB)
	c.mu.Unlock()

	// An entry still building under B's key, whose build will end with
	// A's labels: B's caller pins it, waits for the build, compares and
	// builds its own.
	building := &planEntry{key: keyB, op: core.AddInt64, ready: make(chan struct{}), refs: 1}
	c.mu.Lock()
	c.entries[keyB] = building
	building.elem = c.lru.PushFront(building)
	c.mu.Unlock()
	got := make(chan *planEntry, 1)
	go func() {
		e, err := c.acquire(context.Background(), "serial", core.AddInt64, labelsB, 8)
		if err != nil {
			t.Errorf("acquire against a building entry: %v", err)
		}
		got <- e
	}()
	for waiting := false; !waiting; runtime.Gosched() {
		c.mu.Lock()
		waiting = building.refs == 2
		c.mu.Unlock()
	}
	planA, err := c.build("serial", core.AddInt64, labelsA, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	building.plan = planA
	close(building.ready)
	c.mu.Unlock()
	eB = <-got
	if eB == nil || eB == building || !eB.dead {
		t.Fatal("a collision with a building entry did not get a private plan")
	}
	if err := eB.plan.ReduceBatch(dst[:], src[:]); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dst[0], want.Reductions) {
		t.Fatalf("collision with a building entry: answer %v, want %v", dst[0], want.Reductions)
	}
	c.release(eB)
	c.mu.Lock()
	pins := building.refs
	c.mu.Unlock()
	if pins != 1 {
		t.Fatalf("the building entry holds %d pins after the collision, want the 1 its build holds", pins)
	}
	c.release(building)
}

// TestCacheBuildErrorNotCached asserts a failed build is retried by
// the next identical request instead of being served from the cache.
func TestCacheBuildErrorNotCached(t *testing.T) {
	var st stats
	c := newPlanCache(8, 1, &st)
	defer c.closeAll()
	bad := []int{0, 99} // label out of range for m=4
	if _, err := c.acquire(context.Background(), "serial", core.AddInt64, bad, 4); err == nil {
		t.Fatal("expected build error")
	}
	if c.plans() != 0 {
		t.Fatalf("failed build cached: plans = %d", c.plans())
	}
	if _, err := c.acquire(context.Background(), "serial", core.AddInt64, bad, 4); err == nil {
		t.Fatal("expected build error on retry")
	}
	if st.cacheMisses.Load() != 2 {
		t.Fatalf("misses = %d, want 2 (failure not cached)", st.cacheMisses.Load())
	}
}

// multiprefixBody returns a /v1/multiprefix sum body over labels in
// [0, m) and the multiprefix core.Serial computes for it.
func multiprefixBody(t *testing.T, labels []int, m int, values []int64) ([]byte, []int64) {
	t.Helper()
	body, err := json.Marshal(req("sum", "", labels, m, values))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Serial(core.AddInt64, values, labels, m)
	if err != nil {
		t.Fatal(err)
	}
	return body, want.Multi
}

// postMulti posts a raw /v1/multiprefix body and checks that the 200
// carries want.
func (x *testServer) postMulti(body []byte, want []int64) error {
	resp, err := http.Post(x.ts.URL+"/v1/multiprefix", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var got computeResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(got.Multi, want) {
		return fmt.Errorf("status %d, multi %v, want %v", resp.StatusCode, got.Multi, want)
	}
	return nil
}

// labelText returns the labels array of a canonical compute body as the
// text index keys it.
func labelText(t *testing.T, body []byte) []byte {
	t.Helper()
	var r computeRequest
	if err := decodeCompute(body, &r, math.MaxInt); err != nil || r.labelText == nil {
		t.Fatalf("not a canonical body with labels: %v", err)
	}
	return r.labelText
}

// TestTextIndexCollision forges a text-index collision, B's text key
// naming A's entry, with texts of one length that differ in one byte. A
// request with B's labels must miss, build B's own plan and answer for
// B; from then on the index finds B's plan by B's text.
func TestTextIndexCollision(t *testing.T) {
	x := newTestServer(t, Options{})
	labelsA, values := refInputs(256, 8)
	labelsB := append([]int(nil), labelsA...)
	labelsB[100] = (labelsB[100] + 1) % 8
	bodyA, wantA := multiprefixBody(t, labelsA, 8, values)
	bodyB, wantB := multiprefixBody(t, labelsB, 8, values)
	if len(bodyA) != len(bodyB) || reflect.DeepEqual(wantA, wantB) {
		t.Fatal("A and B must differ in answer, not in length")
	}
	if err := x.postMulti(bodyA, wantA); err != nil {
		t.Fatal(err)
	}
	c := x.s.cache
	c.mu.Lock()
	eA := c.lru.Front().Value.(*planEntry)
	c.texts[c.textKey("auto", core.AddInt64.Name, 8, labelText(t, bodyB))] = eA
	c.mu.Unlock()

	for i := 0; i < 2; i++ {
		if err := x.postMulti(bodyB, wantB); err != nil {
			t.Fatalf("B, post %d: %v", i+1, err)
		}
	}
	if st := x.s.Stats(); st.LabelTextHits != 1 || st.CacheMisses != 2 || st.CachePlans != 2 {
		t.Fatalf("text hits %d, misses %d, plans %d; want 1, 2, 2", st.LabelTextHits, st.CacheMisses, st.CachePlans)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.texts {
		if e == eA {
			t.Fatal("B's text still names A's entry")
		}
	}
}

// TestTextIndexEvictionAndClose asserts that eviction and closeAll take
// an entry's text out of the index, so that the next request with
// those labels misses and rebuilds.
func TestTextIndexEvictionAndClose(t *testing.T) {
	x := newTestServer(t, Options{PlanCacheCap: 1})
	labels, values := refInputs(128, 8)
	bodyA, wantA := multiprefixBody(t, labels, 8, values)
	bodyB, wantB := multiprefixBody(t, testLabels(128, 8, 1), 8, values)
	for _, step := range []struct {
		body             []byte
		want             []int64
		textHits, misses uint64
	}{
		{bodyA, wantA, 0, 1},
		{bodyA, wantA, 1, 1},
		{bodyB, wantB, 1, 2}, // evicts A
		{bodyA, wantA, 1, 3},
		{bodyA, wantA, 2, 3},
	} {
		if err := x.postMulti(step.body, step.want); err != nil {
			t.Fatal(err)
		}
		if st := x.s.Stats(); st.LabelTextHits != step.textHits || st.CacheMisses != step.misses {
			t.Fatalf("text hits %d, misses %d; want %d, %d", st.LabelTextHits, st.CacheMisses, step.textHits, step.misses)
		}
	}
	if got := len(x.s.cache.texts); got != 1 {
		t.Fatalf("%d texts indexed for 1 plan", got)
	}

	x.s.cache.closeAll()
	if got := len(x.s.cache.texts); got != 0 {
		t.Fatalf("closeAll left %d texts indexed", got)
	}
	if err := x.postMulti(bodyA, wantA); err != nil {
		t.Fatal(err)
	}
	if st := x.s.Stats(); st.LabelTextHits != 2 || st.CacheMisses != 4 {
		t.Fatalf("after closeAll: text hits %d, misses %d; want 2, 4", st.LabelTextHits, st.CacheMisses)
	}
}

// TestTextIndexOneEntry sends one label vector as a compact body, as a
// whitespace variant and to /v1/update: three texts, or none, for one
// plan. All resolve to the one cached entry, and the index holds the
// latest text.
func TestTextIndexOneEntry(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, values := refInputs(128, 8)
	compact, want := multiprefixBody(t, labels, 8, values)
	spaced, err := json.MarshalIndent(req("sum", "", labels, 8, values), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{compact, compact, spaced, spaced, compact} {
		if err := x.postMulti(body, want); err != nil {
			t.Fatal(err)
		}
	}
	if resp := x.post(t, "/v1/update", map[string]any{"op": "sum", "m": 8, "labels": labels, "values": values}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", resp.StatusCode)
	}
	st := x.s.Stats()
	if st.CachePlans != 1 || st.CacheMisses != 1 || st.CacheHits != 5 || st.LabelTextHits != 2 {
		t.Fatalf("plans %d, misses %d, hits %d, text hits %d; want 1, 1, 5, 2",
			st.CachePlans, st.CacheMisses, st.CacheHits, st.LabelTextHits)
	}
	if got := len(x.s.cache.texts); got != 1 {
		t.Fatalf("%d texts indexed for 1 plan", got)
	}
}

// TestTextIndexIdentity sends one labels text under two operators, two
// backends and two label spaces: four plans, each found by the text
// only under its own identity, so that none serves another's answers.
func TestTextIndexIdentity(t *testing.T) {
	x := newTestServer(t, Options{})
	labels, values := refInputs(128, 8)
	for round := 0; round < 2; round++ {
		for _, id := range []struct {
			op, backend string
			m           int
		}{{"sum", "", 8}, {"max", "", 8}, {"sum", "serial", 8}, {"sum", "", 9}} {
			body, err := json.Marshal(req(id.op, id.backend, labels, id.m, values))
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Serial(ops[id.op], values, labels, id.m)
			if err != nil {
				t.Fatal(err)
			}
			if err := x.postMulti(body, want.Multi); err != nil {
				t.Fatalf("%+v: %v", id, err)
			}
		}
	}
	if st := x.s.Stats(); st.CachePlans != 4 || st.CacheMisses != 4 || st.LabelTextHits != 4 {
		t.Fatalf("plans %d, misses %d, text hits %d; want 4, 4, 4", st.CachePlans, st.CacheMisses, st.LabelTextHits)
	}
}

// TestTextIndexConcurrent sends three label vectors, each in two
// encodings, from several clients at once through a two-plan cache, so
// that lookups, text stores and evictions race; every answer must be
// the serial one.
func TestTextIndexConcurrent(t *testing.T) {
	x := newTestServer(t, Options{PlanCacheCap: 2})
	_, values := refInputs(128, 8)
	var bodies [][]byte
	var wants [][]int64
	for salt := 0; salt < 3; salt++ {
		labels := testLabels(128, 8, salt)
		body, want := multiprefixBody(t, labels, 8, values)
		spaced, err := json.MarshalIndent(req("sum", "", labels, 8, values), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body, spaced)
		wants = append(wants, want, want)
	}
	const clients, rounds = 4, 24
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i*(g+1)) % len(bodies)
				if err := x.postMulti(bodies[k], wants[k]); err != nil {
					t.Errorf("client %d, request %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Whatever survived is consistent: a live entry under its own key,
	// holding a text that parses to its labels.
	c := x.s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.texts {
		r := computeRequest{labelText: e.text}
		if e.dead || e.textKey != k || parseLabelText(e.text, &r, math.MaxInt) != nil || !equalLabels(e.plan.Labels(), r.Labels) {
			t.Fatalf("text index entry %+v inconsistent", k)
		}
	}
}
