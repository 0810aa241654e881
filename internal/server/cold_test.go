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
// vector, so no n-slot []int or narrowed copy is made beside it.
func TestColdComputeAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's sync.Pool drops vectors at random")
	}
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
		// Six label vectors of one shape, made before any is served so
		// that the garbage of making them does not collect the pools
		// between the misses: three misses fill the body, vector and
		// response pools, and three are measured.
		var bodies [][]byte
		var keys []backend.Key
		for seed := range int64(6) {
			body := seededBody(t, n, m, 100+seed)
			var req computeRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
			keys = append(keys, backend.KeyFor("auto", core.AddInt64.Name, req.Labels, m))
		}
		for _, body := range bodies[:3] {
			serve(body)
		}
		// The least of the three: a collection that empties the pools
		// during one costs it buffers a miss does not make.
		over := int64(math.MaxInt64)
		for i := 3; i < len(bodies); i++ {
			got := int64(totalAlloc(func() { serve(bodies[i]) }))
			s.cache.mu.Lock()
			e := s.cache.entries[keys[i]]
			s.cache.mu.Unlock()
			if e == nil || e.text == nil {
				t.Fatal("the miss left no indexed entry")
			}
			over = min(over, got-e.plan.Bytes()-int64(cap(e.text)))
		}
		t.Logf("n=%d: a miss allocates %d B beyond its plan and label text", n, over)
		if over > coldAllowance {
			t.Errorf("n=%d: a miss allocates %d B beyond its plan's bytes and its label text, want at most %d", n, over, coldAllowance)
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

// TestReadBodyGrowth pins readBody's growth rule: with a declared
// length D the buffer ends with room for D+1 bytes and no more than
// D+D/8+1 (or the first buffer's 512), after at most ⌈log₂(D/512)⌉
// growths; a body that declares
// far more than it sends never holds more than twice what arrived; and
// a body of unknown length is read whole.
func TestReadBodyGrowth(t *testing.T) {
	for _, d := range []int{1, 511, 512, 513, 1000, 1024, 1025, 4096, 65536, 521003, 524288, 1<<20 + 3} {
		for _, piece := range []int{1000, 1 << 30} {
			body := bytes.Repeat([]byte{'7'}, d)
			g := &growthReader{r: bytes.NewReader(body), piece: piece}
			b, err := readBody(nil, g, int64(d))
			if err != nil || !bytes.Equal(b, body) {
				t.Fatalf("D=%d: read %d bytes, %v", d, len(b), err)
			}
			growths := len(g.ends) - 1
			maxGrowths := 0
			if d > 512 {
				maxGrowths = bits.Len(uint((d - 1) / 512)) // ⌈log₂(D/512)⌉
			}
			lo, hi := d+1, max(d+d/8+1, 512)
			if cap(b) < lo || cap(b) > hi || growths > maxGrowths {
				t.Errorf("D=%d, %d-byte reads: capacity %d after %d growths; want %d to %d after at most %d",
					d, piece, cap(b), growths, lo, hi, maxGrowths)
			}
		}
	}

	// A client that declares 64 MiB and sends 1 KiB.
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
// into one buffer, as the wire pool hands its buffers from one request
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
