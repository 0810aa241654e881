package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"multiprefix/internal/core"
)

// TestChaosSoakAndDrain is the acceptance soak: concurrent load with
// ~1% of requests chaos-injected (engine panics and cancellations),
// asserting
//
//   - every non-chaos outcome is a correct 200 (co-batched requests
//     survive their poisoned neighbors),
//   - chaos panics are absorbed by the degradation ladder (200 +
//     fallback, still correct) and chaos cancels surface as typed
//     503/canceled only,
//   - a drain while admitted requests are queued behind a running
//     round drops none of them,
//   - the server leaks no goroutines once closed.
func TestChaosSoakAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	baseline := runtime.NumGoroutine()

	s := New(Options{
		Backend:          "chunked",
		ChaosPanicEvery:  97,
		ChaosCancelEvery: 131,
		ChaosSeed:        7,
		MaxInFlight:      256,
	})
	ts := httptest.NewServer(s.Handler())

	// Three plan shapes rotate through the soak, all warm quickly.
	type shape struct {
		labels []int
		values []int64
		m      int
		want   core.Result[int64]
	}
	shapes := make([]shape, 3)
	for si := range shapes {
		n := 2048 + 512*si
		m := 16 + 8*si
		labels := make([]int, n)
		values := make([]int64, n)
		for i := range labels {
			labels[i] = (i*5 + si) % m
			values[i] = int64((i + si) % 23)
		}
		want, err := core.Serial(core.AddInt64, values, labels, m)
		if err != nil {
			t.Fatal(err)
		}
		shapes[si] = shape{labels: labels, values: values, m: m, want: want}
	}
	bodies := make([][]byte, len(shapes))
	for si, sh := range shapes {
		b, err := json.Marshal(map[string]any{
			"op": "sum", "m": sh.m, "labels": sh.labels, "values": sh.values,
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[si] = b
	}

	const (
		workers       = 8
		perWorker     = 150
		totalRequests = workers * perWorker
	)
	var (
		mu       sync.Mutex
		okCount  int
		fbCount  int
		canceled int
		badKinds []string
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perWorker; i++ {
				si := (w + i) % len(shapes)
				sh := shapes[si]
				endpoint := "/v1/multiprefix"
				if i%2 == 1 {
					endpoint = "/v1/multireduce"
				}
				resp, err := client.Post(ts.URL+endpoint, "application/json", bytes.NewReader(bodies[si]))
				if err != nil {
					t.Errorf("worker %d req %d: %v", w, i, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var cr computeResponse
					if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
						t.Errorf("decode: %v", err)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
					got, ref := cr.Multi, sh.want.Multi
					if endpoint == "/v1/multireduce" {
						got, ref = cr.Reductions, sh.want.Reductions
					}
					wrong := len(got) != len(ref)
					if !wrong {
						for k := range ref {
							if got[k] != ref[k] {
								wrong = true
								break
							}
						}
					}
					if wrong {
						t.Errorf("worker %d req %d: wrong answer under chaos (fallback=%q)", w, i, cr.Fallback)
						return
					}
					mu.Lock()
					okCount++
					if cr.Fallback != "" {
						fbCount++
					}
					mu.Unlock()
				default:
					var er errorResponse
					_ = json.NewDecoder(resp.Body).Decode(&er)
					resp.Body.Close()
					mu.Lock()
					if er.Error.Kind == kindCanceled {
						canceled++
					} else {
						badKinds = append(badKinds, er.Error.Kind)
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := s.Stats()
	if okCount+canceled != totalRequests {
		t.Fatalf("accounting: ok %d + canceled %d != %d", okCount, canceled, totalRequests)
	}
	if len(badKinds) > 0 {
		t.Fatalf("unexpected error kinds under chaos: %v", badKinds)
	}
	// ~1/131 cancels armed; every one must surface typed, none silent.
	if canceled == 0 || uint64(canceled) != st.ChaosCancels {
		t.Fatalf("canceled %d vs chaos cancels %d", canceled, st.ChaosCancels)
	}
	// Every armed panic walked the ladder to a serial answer.
	if st.ChaosPanics == 0 {
		t.Fatal("soak armed no panics; raise load or lower ChaosPanicEvery")
	}
	if fbCount == 0 || st.SerialFallbacks == 0 {
		t.Fatalf("panics never reached the serial rung: fb %d, stats %+v", fbCount, st)
	}

	// Drain with traffic queued in the coalescer: every admitted
	// request must complete. A round of shape 0 is held running, so
	// the requests queue behind it and fuse into one round after the
	// flip; that round also makes the soak cover fusion for certain,
	// which its own traffic does only when requests happen to overlap.
	e, err := s.cache.acquire(context.Background(), "chunked", core.AddInt64, shapes[0].labels, shapes[0].m)
	if err != nil {
		t.Fatal(err)
	}
	release := holdRound(t, s, e, false, shapes[0].values)
	inFlight := 8
	results := make(chan int, inFlight)
	var dwg sync.WaitGroup
	for g := 0; g < inFlight; g++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/multiprefix", "application/json", bytes.NewReader(bodies[0]))
			if err != nil {
				results <- -1
				return
			}
			defer resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	waitQueued(t, s, e, false, inFlight)
	s.Drain()
	release()
	dwg.Wait()
	close(results)
	for code := range results {
		// 200 (possibly chaos-fallback) or 503 (a chaos cancel): both
		// are served answers. -1 or anything else means a dropped
		// request.
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Fatalf("request dropped during drain: status %d", code)
		}
	}
	if st := s.Stats(); st.FusedMembers <= st.FusedRounds {
		t.Fatalf("soak never coalesced: rounds %d members %d", st.FusedRounds, st.FusedMembers)
	}

	ts.Close()
	s.cache.release(e)
	s.Close()

	// Goroutine accounting: the coalescer runners and plan teams are
	// gone once Close returns; give the HTTP stack a moment to reap
	// its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", baseline, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainZeroDrop is the focused lifecycle variant (runs in -short):
// requests admitted before Drain complete with correct answers even
// though the flip happens while they are queued in the coalescer, and
// a request arriving after the flip is refused typed.
func TestDrainZeroDrop(t *testing.T) {
	const inFlight = 6
	s, e, values, want := coalInputs(t, Options{Backend: "chunked", MaxInFlight: 64}, "chunked", 4096, 16)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	body, _ := json.Marshal(map[string]any{"op": "sum", "m": 16, "labels": e.plan.Labels(), "values": values})
	release := holdRound(t, s, e, true, values)

	var wg sync.WaitGroup
	codes := make([]int, inFlight)
	resps := make([]computeResponse, inFlight)
	for g := 0; g < inFlight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/multireduce", "application/json", bytes.NewReader(body))
			if err != nil {
				codes[g] = -1
				return
			}
			defer resp.Body.Close()
			codes[g] = resp.StatusCode
			_ = json.NewDecoder(resp.Body).Decode(&resps[g])
		}(g)
	}
	waitQueued(t, s, e, true, inFlight)
	s.Drain()
	resp, err := ts.Client().Post(ts.URL+"/v1/multireduce", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request after the flip: status %d, want 503", resp.StatusCode)
	}
	release()
	wg.Wait()

	for g, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued request %d dropped across drain: status %d", g, code)
		}
		for k := range want.Reductions {
			if resps[g].Reductions[k] != want.Reductions[k] {
				t.Fatalf("request %d: wrong answer across drain", g)
			}
		}
		if resps[g].Coalesced != inFlight {
			t.Fatalf("request %d: coalesced %d, want the %d queued requests in one round", g, resps[g].Coalesced, inFlight)
		}
	}
}
