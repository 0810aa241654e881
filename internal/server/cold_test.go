package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"multiprefix/internal/backend"
	"multiprefix/internal/core"
)

// coldAllowance is what a miss may allocate beyond its plan's bytes and
// its stored label text: the plan, entry and request structs, the label
// set's class marks, the deadline's timer and the response headers. It
// does not grow with n.
const coldAllowance = 16 << 10

// TestColdComputeAllocs posts label vectors the server has not seen to
// /v1/multiprefix through Handler() and bounds what each miss
// allocates: the new entry's plan (its int32 labels, which the parse
// wrote, and its reductions), the label text the entry stores, and
// coldAllowance. The labels are parsed straight into the plan's int32
// vector, so no n-slot []int or narrowed copy is made beside it, and the
// body buffer and the value and result vectors come from the server's
// lists, which two collections before each miss do not empty.
func TestColdComputeAllocs(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	serve := func(body []byte) {
		t.Helper()
		r, err := http.NewRequest(http.MethodPost, "/v1/multiprefix", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		rec.Body = nil
		s.Handler().ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	const m = 256
	for _, n := range []int{1 << 12, 1 << 16} {
		// Label vectors of one shape: the first miss fills the server's
		// lists, and each of the others is measured.
		var bodies [][]byte
		var keys []backend.Key
		for seed := range int64(4) {
			body := seededBody(t, n, m, 100+seed)
			var req computeRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
			keys = append(keys, backend.KeyFor("auto", core.AddInt64.Name, req.Labels, m))
		}
		serve(bodies[0])
		for i := 1; i < len(bodies); i++ {
			runtime.GC()
			runtime.GC()
			got := int64(totalAlloc(func() { serve(bodies[i]) }))
			s.cache.mu.Lock()
			e := s.cache.entries[keys[i]]
			s.cache.mu.Unlock()
			if e == nil || e.text == nil {
				t.Fatal("the miss left no indexed entry")
			}
			over := got - e.plan.Bytes() - int64(cap(e.text))
			t.Logf("n=%d, miss %d: %d B beyond its plan and label text", n, i, over)
			if over > coldAllowance {
				t.Errorf("n=%d, miss %d: %d B beyond its plan's bytes and its label text, want at most %d", n, i, over, coldAllowance)
			}
		}
	}
}

// TestColdPathErrors posts labels that do not check to the compute
// route twice: in a canonical body, whose labels the scanner parses to
// int32, and in one the scanner refuses (a key in another case), which
// json.Unmarshal decodes to []int. A label beyond int32 fails the int32
// parse, so both of its bodies take json.Unmarshal. Both must get the
// same status, kind and message, the one every release has given.
func TestColdPathErrors(t *testing.T) {
	s := New(Options{MaxM: math.MaxInt32 + 1})
	defer s.Close()
	for _, tc := range []struct {
		name, m, labels, want string
	}{
		{"label < 0", "4", "[0,1,2,3,-1,2]", "labels[4]=-1 outside [0, 4)"},
		{"label ≥ m", "4", "[0,1,2,3,3,4]", "labels[5]=4 outside [0, 4)"},
		{"label of 2^31", "4", "[0,1,2,3,3,2147483648]", "labels[5]=2147483648 outside [0, 4)"},
		{"m > MaxInt32", "2147483648", "[0,1,2,3,3,2]", "m=2147483648 exceeds a plan's int32 label space"},
	} {
		var answers []string
		for _, opKey := range []string{"op", "Op"} {
			body := fmt.Sprintf(`{%q:"sum","m":%s,"labels":%s,"values":[1,2,3,4,5,6]}`, opKey, tc.m, tc.labels)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/multiprefix", strings.NewReader(body)))
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("%s: %v in %q", tc.name, err, rec.Body.Bytes())
			}
			answers = append(answers, fmt.Sprintf("%d %s %s", rec.Code, er.Error.Kind, er.Error.Message))
		}
		want := fmt.Sprintf("%d %s %s: %s", http.StatusBadRequest, kindBadInput, core.ErrBadInput, tc.want)
		if answers[0] != want || answers[1] != want {
			t.Errorf("%s: parsed to int32 %q, decoded by json.Unmarshal %q; want %q", tc.name, answers[0], answers[1], want)
		}
	}
}

// growthReader yields a body at most piece bytes a read and counts the
// buffers it is read into: a new end of the room it is offered is a new
// buffer, as readBody's room always runs to the buffer's capacity.
type growthReader struct {
	r       io.Reader
	piece   int
	ends    []uintptr
	maxRoom int
}

func (g *growthReader) Read(p []byte) (int, error) {
	if end := uintptr(unsafe.Pointer(unsafe.SliceData(p))) + uintptr(len(p)); len(p) > 0 && !slices.Contains(g.ends, end) {
		g.ends = append(g.ends, end)
	}
	return g.r.Read(p[:min(len(p), g.piece)])
}

// TestReadBodyGrowth pins readBody's sizing rule. A body that declares
// a length D with D+D/8+1 within maxPooledBuf is read into one buffer of
// max(D+D/8+1, 512) bytes, however its bytes arrive: no growth, and no
// allocation but that buffer. A client that declares 3 MiB and sends 1 KiB holds that
// one buffer. Past maxPooledBuf the buffer grows as bytes arrive,
// doubling from 512 and capped at D+D/8+1 once doubling would reach D,
// so a client that declares 64 MiB and sends a few KB holds at most
// twice what arrived; and a body of unknown length is read whole.
func TestReadBodyGrowth(t *testing.T) {
	for _, d := range []int{1, 511, 512, 513, 1000, 1024, 1025, 4096, 65536, 521003, 524288, 1<<20 + 3, maxPooledBuf*8/9 - 1} {
		body := bytes.Repeat([]byte{'7'}, d)
		want := max(d+d/8+1, 512)
		for _, piece := range []int{1000, 1 << 30} {
			g := &growthReader{r: bytes.NewReader(body), piece: piece}
			b, err := readBody(nil, g, int64(d))
			if err != nil || !bytes.Equal(b, body) {
				t.Fatalf("D=%d: read %d bytes, %v", d, len(b), err)
			}
			if cap(b) != want || len(g.ends) != 1 {
				t.Errorf("D=%d, %d-byte reads: capacity %d in %d buffers; want %d in one", d, piece, cap(b), len(g.ends), want)
			}
		}
		// Every buffer readBody makes is offered to a read, so one end
		// is one buffer; and the heap grows by that buffer alone, up to
		// the allocator's page rounding and what the runtime allocates
		// on its own under the race detector, a few KB now and then.
		r := bytes.NewReader(body)
		for run := range 3 {
			r.Reset(body)
			if got := totalAlloc(func() {
				if _, err := readBody(nil, r, int64(d)); err != nil {
					t.Fatal(err)
				}
			}); got > uint64(want)+16<<10 {
				t.Errorf("D=%d, run %d: %d bytes allocated, want one buffer of %d", d, run, got, want)
			}
		}
	}

	// Past maxPooledBuf: growth as the bytes arrive.
	for _, d := range []int{maxPooledBuf*8/9 + 1, maxPooledBuf, 5 << 20} {
		body := bytes.Repeat([]byte{'5'}, d)
		g := &growthReader{r: bytes.NewReader(body), piece: 1 << 16}
		b, err := readBody(nil, g, int64(d))
		if err != nil || !bytes.Equal(b, body) {
			t.Fatalf("D=%d: read %d bytes, %v", d, len(b), err)
		}
		maxGrowths := bits.Len(uint((d - 1) / 512)) // ⌈log₂(D/512)⌉
		if growths := len(g.ends) - 1; cap(b) < d+1 || cap(b) > d+d/8+1 || growths > maxGrowths {
			t.Errorf("D=%d: capacity %d after %d growths; want %d to %d after at most %d", d, cap(b), growths, d+1, d+d/8+1, maxGrowths)
		}
	}

	// A client that declares 3 MiB and sends 1 KiB holds the buffer its
	// declared length sized.
	const d3 = 3 << 20
	if b, err := readBody(nil, bytes.NewReader(bytes.Repeat([]byte{'2'}, 1<<10)), d3); err != nil || len(b) != 1<<10 || cap(b) > d3+d3/8+1 {
		t.Errorf("declared 3 MiB, sent 1 KiB: read %d bytes into %d, %v; want at most %d", len(b), cap(b), err, d3+d3/8+1)
	}

	// A client that declares 64 MiB and sends a few KB.
	for _, sent := range []int{1, 1 << 10, 5000} {
		b, err := readBody(nil, bytes.NewReader(bytes.Repeat([]byte{'1'}, sent)), 64<<20)
		if err != nil || len(b) != sent || cap(b) > 2*max(sent, 512) {
			t.Errorf("declared 64 MiB, sent %d: read %d bytes into %d, %v; want at most %d", sent, len(b), cap(b), err, 2*max(sent, 512))
		}
	}

	// No declared length: plain doubling, the whole body.
	body := bytes.Repeat([]byte{'3'}, 300000)
	if b, err := readBody(nil, bytes.NewReader(body), -1); err != nil || !bytes.Equal(b, body) || cap(b) > 2*len(body) {
		t.Errorf("unknown length: read %d of %d bytes into %d, %v", len(b), len(body), cap(b), err)
	}
}

// TestChunkedBody posts a compute body with no declared length, as a
// chunked upload arrives, and requires the answer a declared one gets.
func TestChunkedBody(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	body := seededBody(t, 5000, 16, 3)
	var answers []string
	for _, declared := range []bool{true, false} {
		r := httptest.NewRequest(http.MethodPost, "/v1/multiprefix", io.MultiReader(bytes.NewReader(body[:1000]), bytes.NewReader(body[1000:])))
		if declared {
			r.ContentLength = int64(len(body))
		} else {
			r.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("declared %v: status %d %s", declared, rec.Code, rec.Body.Bytes())
		}
		answers = append(answers, rec.Body.String())
	}
	if answers[0] != answers[1] {
		t.Fatal("a chunked body got another answer than a declared one")
	}
}

// TestReadBodyRotation reads svc-shaped bodies (n=2^16, m=256, four
// label vectors whose texts differ by a few hundred bytes) in rotation
// into one buffer, as the wire list hands its buffers from one request
// to the next: after the first round the buffer never grows again, the
// shortest body coming first. A buffer sized exactly for one body would
// grow for every longer one.
func TestReadBodyRotation(t *testing.T) {
	var bodies [][]byte
	for seed := range int64(4) {
		bodies = append(bodies, seededBody(t, 1<<16, 256, 40+seed))
	}
	slices.SortFunc(bodies, func(a, b []byte) int { return len(a) - len(b) })
	t.Logf("body lengths %d to %d", len(bodies[0]), len(bodies[3]))
	var b []byte
	var caps []int
	for round := range 3 {
		for _, body := range bodies {
			var err error
			if b, err = readBody(b[:0], bytes.NewReader(body), int64(len(body))); err != nil {
				t.Fatal(err)
			}
			if round > 0 && cap(b) != caps[len(caps)-1] {
				t.Fatalf("round %d: the buffer grew from %d to %d for a %d-byte body", round, caps[len(caps)-1], cap(b), len(body))
			}
			caps = append(caps, cap(b))
		}
	}
}
