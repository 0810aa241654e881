package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"multiprefix/internal/core"
)

// TestCacheEntryBytes bounds what one cache entry holds by the live
// heap it adds: the plan (labels once, as int32, and the reduction
// scratch of one prefix batch) plus the stored label text. The cache
// gauge (mp_plan_cache_bytes) must agree with the heap within 5%.
func TestCacheEntryBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		backend string
		n, m    int
		bound   int64
	}{
		{"svc shape", "auto", 1 << 16, 256, 550_000},
		// the default MaxN and MaxM
		{"service limits", "serial", 1 << 21, 1 << 18, 26_000_000},
	} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		labels := make([]int, tc.n)
		for i := range labels {
			labels[i] = rng.Intn(tc.m)
		}
		text, err := json.Marshal(labels)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]int64, tc.n)
		d, s := [1][]int64{make([]int64, tc.n)}, [1][]int64{values}
		var st stats
		c := newPlanCache(8, 2, &st)

		before := liveHeapBytes()
		e, err := c.acquire(context.Background(), tc.backend, core.AddInt64, labels, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		c.storeText(e, c.textKey(tc.backend, core.AddInt64.Name, tc.m, text), text)
		if err := e.plan.RunBatch(d[:], s[:]); err != nil {
			t.Fatal(err)
		}
		c.release(e)
		heap := liveHeapBytes() - before
		runtime.KeepAlive(labels) // the request's inputs are not the entry's
		runtime.KeepAlive(text)
		runtime.KeepAlive(d)
		runtime.KeepAlive(s)
		gauge := c.bytes()
		c.closeAll()
		t.Logf("%s (%s, n=%d, m=%d): heap delta %d bytes, gauge %d (text %d)", tc.name, tc.backend, tc.n, tc.m, heap, gauge, len(text))
		if heap > tc.bound {
			t.Errorf("%s: the entry holds %d bytes, want <= %d", tc.name, heap, tc.bound)
		}
		if diff := gauge - heap; diff > heap/20 || -diff > heap/20 {
			t.Errorf("%s: cache gauge %d bytes, heap delta %d: off by more than 5%%", tc.name, gauge, heap)
		}
	}
}

// liveHeapBytes is the heap still reachable after two full
// collections (the second clears sync.Pool victims).
func liveHeapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSerialRungOwnPlan posts a chaos-panicked request to a chunked
// plan: the ladder's serial rung answers on that entry's own plan, so
// the answer carries "fallback":"serial", the cache holds one entry,
// and the drained warm file lists exactly the plan the client asked
// for.
func TestSerialRungOwnPlan(t *testing.T) {
	x := newTestServer(t, Options{Backend: "chunked", ChaosPanicEvery: 1, ChaosSeed: 7})
	labels, values := refInputs(4096, 31)
	want, _ := core.Serial(core.AddInt64, values, labels, 31)
	var resp computeResponse
	if hr := x.post(t, "/v1/multiprefix", req("sum", "", labels, 31, values), &resp); hr.StatusCode != http.StatusOK {
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
	if st := x.s.Stats(); st.CachePlans != 1 || st.SerialFallbacks != 1 {
		t.Fatalf("after the serial rung: %d cached plans, %d fallbacks; want 1, 1", st.CachePlans, st.SerialFallbacks)
	}
	x.s.Drain()
	path := filepath.Join(t.TempDir(), "plans.json")
	if err := x.s.PersistPlansToFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []warmKey[int]
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0].Backend != "chunked" || !slices.Equal(keys[0].Labels, labels) {
		t.Fatalf("warm file holds %+v, want the one chunked plan", keys)
	}
}
