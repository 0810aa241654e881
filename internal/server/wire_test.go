package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
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

// FuzzComputeDecodeParity holds the compute-body decoder to
// json.Unmarshal into a zero computeRequest: the same struct under
// reflect.DeepEqual (nil and empty slices differ there, and a scanner
// that gave up mid-body must leave no field behind) and the same error.
func FuzzComputeDecodeParity(f *testing.F) {
	f.Add(wireBody(f, 64, 16))
	for _, seed := range []string{
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want computeRequest
		gotErr := decodeBody(data, &got)
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: error %v, json.Unmarshal %v", data, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", data, got, want)
		}
	})
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
// none, and decoding a canonical body makes only its two slices.
func TestWireAllocs(t *testing.T) {
	body := wireBody(t, 4096, 256)
	var req computeRequest
	if !scanCompute(body, &req) {
		t.Fatal("the scanner refused a canonical body")
	}
	if got := testing.AllocsPerRun(20, func() {
		req = computeRequest{}
		if err := decodeBody(body, &req); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("decode: %v allocs, want 2 (labels and values)", got)
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
// m=256, each beside encoding/json doing the same job.
func BenchmarkComputeDecode(b *testing.B) {
	body := wireBody(b, 1<<16, 256)
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req computeRequest
			if err := decodeBody(body, &req); err != nil {
				b.Fatal(err)
			}
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
	if err := decodeBody(wireBody(b, 1<<16, 256), &req); err != nil {
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
