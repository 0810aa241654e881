package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"multiprefix/internal/core"
)

// wireBody is a canonical compute body as clients send it: n labels in
// [0, m) and values in [-1000, 1000], marshalled from the request struct.
func wireBody(tb testing.TB, n, m int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	req := computeRequest{Op: "sum", M: m, Labels: make([]int, n), Values: make([]int64, n)}
	for i := range req.Labels {
		req.Labels[i] = rng.Intn(m)
		req.Values[i] = rng.Int63n(2001) - 1000
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeSeeds are compute bodies at the edges of the scanner's
// canonical shape, shared by the decoder and handler fuzz targets.
var decodeSeeds = []string{
	// The order json.Marshal gives a map, as mpload sends it.
	`{"backend":"auto","labels":[0,1,0],"m":2,"op":"sum","values":[5,-6,7]}`,
	" \t\r\n{ \"op\" : \"max\" , \"m\" : 3 , \"labels\" : [ 2 , 0 ] , \"values\" : [ 1 , 2 ] } \n",
	`{"op":"sum","m":2,"labels":[0,1],"batch":[[1,2],[3,4]],"deadline_ms":50,"pin_version":7}`,
	`{"op":"sum","m":2,"labels":[],"values":[],"batch":[]}`,
	`{"batch":[[],[1]]}`,
	`{}`,
	``,
	`null`,
	`[]`,
	// Case-variant and unknown keys.
	`{"OP":"sum","M":2,"Labels":[0,1],"VALUES":[1,2]}`,
	`{"op":"sum","m":2,"labels":[0],"values":[1],"extra":{"x":[1,2]}}`,
	// Escapes and strings beyond printable ASCII.
	`{"op":"s\u0075m","m":2,"labels":[0],"values":[1]}`,
	`{"op":"sum","m":2,"lab\u0065ls":[0],"values":[1]}`,
	`{"op":"su\"m"}`,
	"{\"op\":\"\xc3\xa9\"}",
	"{\"op\":\"\xff\"}",
	"{\"op\":\"a\x7f\"}",
	"{\"op\":\"a\x01\"}",
	// null, floats, exponents, leading zeros, signs.
	`{"op":null,"labels":null,"values":null,"batch":null}`,
	`{"m":1e3}`,
	`{"m":1.0}`,
	`{"values":[1E3]}`,
	`{"values":[1,2.5]}`,
	`{"m":01}`,
	`{"m":+1}`,
	`{"m":-}`,
	`{"m":-0,"labels":[-0],"values":[-0],"deadline_ms":-0}`,
	`{"pin_version":-0}`,
	`{"pin_version":-1}`,
	// The 64-bit edges.
	`{"values":[9223372036854775807,-9223372036854775808]}`,
	`{"values":[9223372036854775808]}`,
	`{"values":[-9223372036854775809]}`,
	`{"labels":[9223372036854775807,-9223372036854775808]}`,
	`{"labels":[99999999999999999999]}`,
	`{"pin_version":9223372036854775808}`,
	`{"pin_version":18446744073709551615}`,
	`{"pin_version":18446744073709551616}`,
	`{"deadline_ms":-9223372036854775808}`,
	// Duplicate keys: the last one wins in json.Unmarshal.
	`{"op":"sum","op":"max"}`,
	`{"labels":[1,2,3],"labels":[4]}`,
	`{"values":[1,2],"values":[]}`,
	// Trailing data and truncation.
	`{"op":"sum","m":2,"labels":[0],"values":[1]}{"x":`,
	`{"op":"sum","m":2,"labels":[0],"values":[1]} x`,
	`{"op":"sum","m":2,"labels":[0],"values":[1]`,
	`{"op":"sum","m":2,"labels":[0,],"values":[1]}`,
	`{"op":"sum",}`,
	`{"labels":[0 1]}`,
	`{"labels":[[0]]}`,
	`{"batch":[1]}`,
	`{"op":1}`,
	`{"m":"2"}`,
}

// decodeFull decodes a compute body as the handler does when the text
// index misses: decodeCompute, then parseLabelText on the labels text.
func decodeFull(data []byte, req *computeRequest, maxN int) error {
	if err := decodeCompute(data, req, maxN); err != nil || req.labelText == nil {
		return err
	}
	err := parseLabelText(data, req, maxN)
	req.labelText = nil // json.Unmarshal never sets it
	return err
}

// FuzzComputeDecodeParity holds the compute-body decoder to
// json.Unmarshal into a zero computeRequest: the same struct under
// reflect.DeepEqual (nil and empty slices differ there, and a scanner
// that gave up mid-body must leave no field behind) and the same error.
func FuzzComputeDecodeParity(f *testing.F) {
	f.Add(wireBody(f, 64, 16))
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want computeRequest
		gotErr := decodeFull(data, &got, math.MaxInt)
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: error %v, json.Unmarshal %v", data, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", data, got, want)
		}
		// Under a length limit the scanner stores no longer array, but
		// decodes everything else alike; a body it refuses goes to
		// json.Unmarshal unlimited.
		const limit = 2
		var lim computeRequest
		limErr := decodeFull(data, &lim, limit)
		if (limErr == nil) != (wantErr == nil) || (limErr != nil && limErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: limited error %v, json.Unmarshal %v", data, limErr, wantErr)
		}
		if capped := capArrays(want, limit); !reflect.DeepEqual(lim, want) && !reflect.DeepEqual(lim, capped) {
			t.Fatalf("%q: limited decode %+v, want %+v or %+v", data, lim, want, capped)
		}
	})
}

// capArrays is r as a decoder limited to limit elements per array
// reports it: every longer array nil, and overN the longest one's length.
func capArrays(r computeRequest, limit int) computeRequest {
	capped := func(n int) bool {
		if n > limit {
			r.overN = max(r.overN, n)
			return true
		}
		return false
	}
	if capped(len(r.Labels)) {
		r.Labels = nil
	}
	if capped(len(r.Values)) {
		r.Values = nil
	}
	if r.Batch != nil {
		b := make([][]int64, len(r.Batch))
		for i, v := range r.Batch {
			if !capped(len(v)) {
				b[i] = v
			}
		}
		r.Batch = b
	}
	return r
}

// FuzzServeCompute posts arbitrary bytes to /v1/multiprefix twice on one
// Server: the first post of a canonical body parses its labels, the
// second finds its plan by the labels text. Both answers must be what
// referenceAnswer says: a 200 whose multi is core.Serial's, or the same
// typed 4xx. Never a 5xx, except the typed 504 of a deadline the body
// itself set.
func FuzzServeCompute(f *testing.F) {
	f.Add(wireBody(f, 48, 16))
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		`{"op":"sum","m":4,"labels":[0,1,2,3,0,1],"values":[1,2,3,4,5,6]}`,
		"{\"op\":\"sum\",\"m\":4,\n\"labels\":[ 0,1 ,2,3,0,1 ],\t\"values\":[1,2,3,4,5,6]}",
		`{"op":"sum","m":4,"labels":[0,1,2],"labels":[0,1,2],"values":[1,2,3]}`,
		`{"op":"sum","m":4,"labels":[0,1.5,2],"values":[1,2,3]}`,
		`{"op":"sum","m":4,"labels":[0,null,2],"values":[1,2,3]}`,
		`{"op":"sum","m":4,"labels":[0,-1,2],"values":[1,2,3]}`,
		`{"op":"sum","m":4,"labels":[0,4,2],"values":[1,2,3]}`,
		`{"op":"sum","m":4,"labels":[0,"]",2],"values":[1,2,3]}`,
		`{"op":"sum","backend":"vector","m":4,"labels":[0,1,2],"values":[1,2,3]}`,
		`{"op":"max","backend":"sorted","m":99,"labels":[0,1,2],"values":[1,2,3]}`,
		`{"op":"sum","m":4,"labels":[` + strings.Repeat("1,", 64) + `1],"values":[1]}`,
		`{"op":"sum","m":4,"labels":[1],"values":[` + strings.Repeat("1,", 64) + `1]}`,
		`{"op":"sum","backend":"gpu","m":4,"labels":[` + strings.Repeat("1,", 64) + `1]}`,
	} {
		f.Add([]byte(seed))
	}
	s := New(Options{MaxN: 64, MaxM: 64, Workers: 2, CoalesceWindow: -1, PlanCacheCap: 8})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		want, multi, deadlineMS := referenceAnswer(s, body)
		for post := 1; post <= 2; post++ {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/multiprefix", bytes.NewReader(body)))
			got := fmt.Sprintf("%d/", rec.Code)
			if rec.Code == http.StatusOK {
				var resp computeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("%q: 200 body %q: %v", body, rec.Body.Bytes(), err)
				}
				if len(resp.Multi) != len(multi) || (len(multi) > 0 && !reflect.DeepEqual(resp.Multi, multi)) {
					t.Fatalf("%q: post %d multi %v, core.Serial %v", body, post, resp.Multi, multi)
				}
			} else {
				var er errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Kind == "" {
					t.Fatalf("%q: status %d with untyped body %q", body, rec.Code, rec.Body.Bytes())
				}
				got += er.Error.Kind
			}
			if got != want && !(want == "200/" && got == "504/"+kindDeadline && deadlineMS > 0) {
				t.Fatalf("%q: post %d got %s, want %s (%s)", body, post, got, want, rec.Body.Bytes())
			}
		}
	})
}

// referenceAnswer is the status and error kind s must give a compute
// body: it is decoded by json.Unmarshal and checked in the handler's
// order (operator, backend, n, m, value count), then by the plan
// build's validation, which core.Serial shares. A request that passes
// gets "200/" and core.Serial's multiprefix.
func referenceAnswer(s *Server, body []byte) (want string, multi []int64, deadlineMS int64) {
	const bad = "400/" + kindBadInput
	var r computeRequest
	if err := json.Unmarshal(body, &r); err != nil {
		return bad, nil, 0
	}
	op, ok := ops[r.Op]
	backendName := r.Backend
	if backendName == "" {
		backendName = s.opts.Backend
	}
	switch {
	case !ok:
		return bad, nil, 0
	case !serviceBackends[backendName]:
		return "400/" + kindUnknownBack, nil, 0
	case len(r.Labels) > s.opts.MaxN || r.M > s.opts.MaxM || len(r.Values) != len(r.Labels):
		return bad, nil, 0
	}
	res, err := core.Serial(op, r.Values, r.Labels, r.M)
	if err != nil {
		return bad, nil, 0
	}
	return "200/", res.Multi, r.DeadlineMS
}

// TestOverLimitAllocs posts arrays of 2^20 elements to a server with
// MaxN 1024 and bounds what each request allocates beyond reading its
// body: the decoder counts an over-long array's commas and stores none
// of it, and the request gets the typed n-limit 400.
func TestOverLimitAllocs(t *testing.T) {
	s := New(Options{MaxN: 1024})
	defer s.Close()
	long := "[" + strings.Repeat("1,", 1<<20-1) + "1]"
	for _, tc := range []struct{ name, body string }{
		{"labels", `{"op":"sum","m":4,"labels":` + long + `}`},
		{"values", `{"op":"sum","m":4,"labels":[1],"values":` + long + `}`},
		{"batch", `{"op":"sum","m":4,"labels":[1],"batch":[[1],` + long + `]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			read := totalAlloc(func() {
				if _, err := readBody(nil, bytes.NewReader(body)); err != nil {
					t.Fatal(err)
				}
			})
			var rec *httptest.ResponseRecorder
			got := totalAlloc(func() {
				rec = httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/multiprefix", bytes.NewReader(body)))
			})
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusBadRequest || er.Error.Kind != kindBadInput || !strings.Contains(er.Error.Message, "exceeds limit 1024") {
				t.Fatalf("got %d/%s %q, want 400/%s n=… exceeds limit 1024", rec.Code, er.Error.Kind, er.Error.Message, kindBadInput)
			}
			if got > read+1<<20 {
				t.Errorf("request allocated %d bytes, reading its %d-byte body %d", got, len(body), read)
			}
		})
	}
}

// totalAlloc reports the bytes the heap allocated while fn ran.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestComputeEncodeParity pins appendCompute byte for byte to what
// json.Encoder writes for the same response.
func TestComputeEncodeParity(t *testing.T) {
	for _, r := range []computeResponse{
		{Backend: "auto", Op: "sum", N: 3, M: 2, Multi: []int64{0, 5, -1}, Coalesced: 1},
		{Backend: "sorted", Op: "max", N: 3, M: 2, Multi: []int64{}, Coalesced: 2},
		{Backend: "chunked", Op: "xor", N: 3, M: 4, Reductions: []int64{1, 2, 3, 4}, Coalesced: 16, Fallback: "serial"},
		{Backend: "serial", Op: "min", N: 1, M: 1, Multi: []int64{7}, Reductions: []int64{9}},
		{Backend: "auto", Op: "sum", N: math.MaxInt64, M: math.MinInt64,
			Multi: []int64{math.MinInt64, math.MaxInt64, 0, -1}, Coalesced: -1},
		{},
		{Backend: "<a&b>", Op: `"q\`, Fallback: "  "},
		{Backend: "é", Op: "\x00\x1f\x7f", Fallback: "\xff"},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := appendCompute(nil, &r); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendCompute(%+v)\n got %q\nwant %q", r, got, want.Bytes())
		}
	}
}

// TestWireAllocs pins the codec's allocations: a warm encode makes
// none, decoding a canonical body makes only its values slice, since
// the labels stay text, and parsing that text makes the labels slice.
func TestWireAllocs(t *testing.T) {
	body := wireBody(t, 4096, 256)
	var req computeRequest
	if !scanCompute(body, &req, math.MaxInt) || req.labelText == nil {
		t.Fatal("the scanner refused a canonical body")
	}
	if got := testing.AllocsPerRun(20, func() {
		req = computeRequest{}
		if err := decodeCompute(body, &req, math.MaxInt); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("decode: %v allocs, want 1 (values)", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := parseLabelText(body, &req, math.MaxInt); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("label parse: %v allocs, want 1 (labels)", got)
	}

	resp := computeResponse{Backend: "auto", Op: req.Op, N: len(req.Labels), M: req.M, Multi: req.Values, Coalesced: 1}
	buf := appendCompute(nil, &resp)
	if got := testing.AllocsPerRun(20, func() {
		buf = appendCompute(buf[:0], &resp)
	}); got != 0 {
		t.Errorf("warm encode: %v allocs, want 0", got)
	}
}

// The codec benchmarks run at the service benchmark's shape, n=2^16 and
// m=256, each beside encoding/json doing the same job. BenchmarkComputeDecode's
// codec row parses the labels, as a text-index miss does; its text_hit
// row decodes the rest of the body and finds the labels by their bytes
// instead, as a warm request does.
func BenchmarkComputeDecode(b *testing.B) {
	body := wireBody(b, 1<<16, 256)
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req computeRequest
			if err := decodeFull(body, &req, math.MaxInt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text_hit", func(b *testing.B) {
		var st stats
		c := newPlanCache(1, 1, &st)
		defer c.closeAll()
		var req computeRequest
		if err := decodeFull(body, &req, math.MaxInt); err != nil {
			b.Fatal(err)
		}
		e, err := c.acquire("serial", core.AddInt64, req.Labels, req.M)
		if err != nil {
			b.Fatal(err)
		}
		c.release(e)
		req = computeRequest{}
		if err := decodeCompute(body, &req, math.MaxInt); err != nil {
			b.Fatal(err)
		}
		c.storeText(e, c.textKey("serial", core.AddInt64.Name, req.M, req.labelText), req.labelText)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			req = computeRequest{}
			if err := decodeCompute(body, &req, math.MaxInt); err != nil {
				b.Fatal(err)
			}
			hit := c.acquireText(c.textKey("serial", core.AddInt64.Name, req.M, req.labelText), req.labelText)
			if hit == nil {
				b.Fatal("text index missed")
			}
			c.release(hit)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req computeRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkComputeEncode(b *testing.B) {
	var req computeRequest
	if err := decodeFull(wireBody(b, 1<<16, 256), &req, math.MaxInt); err != nil {
		b.Fatal(err)
	}
	// Values stand in for the result: the same count and magnitude of
	// integers as a multiprefix of them.
	resp := computeResponse{Backend: "auto", Op: req.Op, N: len(req.Labels), M: req.M, Multi: req.Values, Coalesced: 1}
	out := appendCompute(nil, &resp)
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(out)))
		b.ReportAllocs()
		for b.Loop() {
			out = appendCompute(out[:0], &resp)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		var buf bytes.Buffer
		b.SetBytes(int64(len(out)))
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
