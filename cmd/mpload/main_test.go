package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunMixCountsOKOnly drives runMix against a server that answers
// every other request with an immediate 429 and the rest with a 200
// after 2 ms. Throughput and latency count the answers only: qps is
// ok/elapsed, not requests/elapsed, and no refusal pulls the
// percentiles under the 2 ms an answer takes.
func TestRunMixCountsOKOnly(t *testing.T) {
	var seq atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if seq.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"kind":"overloaded"}}`))
			return
		}
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte(`{"coalesced":1}`))
	}))
	defer srv.Close()

	res := runMix(srv.URL, "reduce", [][]byte{[]byte(`{}`)}, 1, 300*time.Millisecond, 1)
	if res.OK == 0 || res.Shed == 0 || res.Errors != 0 {
		t.Fatalf("ok %d, shed %d, errors %d; want answers and sheds, no errors (first error %q)", res.OK, res.Shed, res.Errors, res.FirstError)
	}
	if res.Requests != res.OK+res.Shed {
		t.Errorf("requests %d, want ok %d + shed %d", res.Requests, res.OK, res.Shed)
	}
	if want := float64(res.OK) / res.DurSec; res.QPS < 0.99*want || res.QPS > 1.01*want {
		t.Errorf("qps %.1f, want ok/elapsed = %.1f (requests/elapsed is %.1f)", res.QPS, want, float64(res.Requests)/res.DurSec)
	}
	if res.P50MS < 2 || res.P99MS < 2 || res.MeanMS < 2 {
		t.Errorf("mean %.3f ms, p50 %.3f ms, p99 %.3f ms; every answer took at least 2 ms", res.MeanMS, res.P50MS, res.P99MS)
	}
}
