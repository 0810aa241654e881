package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// size reports how many buffers the list holds.
func (l *freeList[T]) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// TestFreeListShared: a wire buffer or vector one goroutine releases is
// the next one another goroutine takes, and collections between the two
// do not empty the list.
func TestFreeListShared(t *testing.T) {
	bufs := newReqBufs(4)
	for round := range 50 {
		wire, vec := make([]byte, 0, 4096), make([]int64, 1000, 1024)
		released := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			bufs.putWire(wire)
			bufs.putVec(vec)
			close(released)
		}()
		var gotWire []byte
		var gotVec []int64
		go func() {
			defer wg.Done()
			<-released
			if round%5 == 0 {
				runtime.GC()
				runtime.GC()
			}
			gotWire, gotVec = bufs.getWire(), bufs.getVec(1000)
		}()
		wg.Wait()
		if unsafe.SliceData(gotWire) != unsafe.SliceData(wire) || len(gotWire) != 0 || cap(gotWire) != cap(wire) {
			t.Fatalf("round %d: took wire buffer %p (len %d, cap %d), want the released %p", round, unsafe.SliceData(gotWire), len(gotWire), cap(gotWire), unsafe.SliceData(wire))
		}
		if unsafe.SliceData(gotVec) != unsafe.SliceData(vec) || len(gotVec) != 1000 {
			t.Fatalf("round %d: took vector %p of %d, want the released %p", round, unsafe.SliceData(gotVec), len(gotVec), unsafe.SliceData(vec))
		}
	}
	if n := bufs.wire.size(); n != 0 {
		t.Fatalf("the wire list holds %d buffers after every release was taken", n)
	}
}

// TestFreeListBounds sends a burst of 3×MaxInFlight concurrent requests,
// single-vector and batch, through Handler(): admission sheds the
// excess, and once every answer is in no list holds more than its
// bound, MaxInFlight wire buffers and 2×MaxInFlight vectors a class,
// though a batch request alone releases six vectors of one class.
func TestFreeListBounds(t *testing.T) {
	const maxInFlight = 3
	s := New(Options{MaxInFlight: maxInFlight})
	defer s.Close()
	body := seededBody(t, 1000, 16, 7)
	var req computeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	req.Batch = [][]int64{req.Values, req.Values, req.Values}
	req.Values = nil
	batchBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for i := range 3 * maxInFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path, b := "/v1/multiprefix", body
			if i%2 == 1 {
				path, b = "/v1/multiprefix/batch", batchBody
			}
			r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
			rec := httptest.NewRecorder()
			<-start
			s.Handler().ServeHTTP(rec, r)
			mu.Lock()
			codes[rec.Code]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if codes[http.StatusOK] == 0 || codes[http.StatusOK]+codes[http.StatusTooManyRequests] != 3*maxInFlight {
		t.Fatalf("statuses %v, want only 200s and 429s, at least one 200", codes)
	}
	if n := s.bufs.wire.size(); n == 0 || n > maxInFlight {
		t.Errorf("the wire list holds %d buffers, want 1 to %d", n, maxInFlight)
	}
	kept := 0
	for k := range s.bufs.vecs {
		n := s.bufs.vecs[k].size()
		if n > 2*maxInFlight {
			t.Errorf("vector class %d holds %d vectors, want at most %d", k, n, 2*maxInFlight)
		}
		kept += n
	}
	if kept == 0 {
		t.Error("no vector list kept a released vector")
	}
	t.Logf("statuses %v; the lists hold %d wire buffers and %d vectors", codes, s.bufs.wire.size(), kept)
}
