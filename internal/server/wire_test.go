package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"multiprefix/internal/core"
)

// wireBody is a canonical compute body as clients send it: n labels in
// [0, m) and values in [-1000, 1000], marshalled from the request struct.
func wireBody(tb testing.TB, n, m int) []byte {
	tb.Helper()
	return seededBody(tb, n, m, 1)
}

// seededBody is wireBody drawn from seed: bodies of one shape and
// different seeds have different label vectors.
func seededBody(tb testing.TB, n, m int, seed int64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
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
	// Batches with more vectors than a limit of 2, one vector over it too.
	`{"batch":[[1],[2],[3]]}`,
	`{"batch":[[1],[2,3,4],[5],[]]}`,
}

// intTexts are integer array elements at the edges of the codec's 8-byte
// word: every width from 1 to 20 digits with either sign, each repeated
// so that the first copies have the word's nine bytes ahead of them,
// zeros the reference refuses, a lone sign, and whitespace on either
// side of a comma.
var intTexts = func() []string {
	var t []string
	for w := 1; w <= 20; w++ {
		d := "12345678901234567890"[:w]
		t = append(t, d+","+d+","+d, "-"+d+",-"+d+",-"+d)
	}
	return append(t,
		"-0,-0,-0,-0", "00,1,2,3,4,5", "1,00", "-01,1,2,3,4,5", "1,-01", "-,1,2,3,4,5", "1,-",
		"1 ,2, 3 , 4\t,\n5,\r6,7,8,9", " 1234567 ,7654321 , -1234567",
		"9999999,10000000,99999999,100000000,-9999999,-10000000",
		"1234567.5,1", "1234567e1,1", "1234567x,1", "1234567,]")
}()

// blockTexts are integer array texts at the edges of scanInts' 64-byte
// blocks, which start at an array's first element: arrays of 63, 64, 65
// and 128 bytes, and each element the pass hands to scanInt (eight
// digits or more, whitespace-padded, a leading zero, -0, malformed) at
// the first, a middle and the last position of a block, across a block
// edge, and so that its comma, or its sign, is a block's last byte.
var blockTexts = func() []string {
	// pad returns g ≥ 2 bytes of short elements, each with its comma.
	pad := func(g int) string {
		if g%2 == 1 {
			return "12," + strings.Repeat("1,", (g-3)/2)
		}
		return strings.Repeat("1,", g/2)
	}
	var t []string
	for _, n := range []int{63, 64, 65, 128} {
		t = append(t, pad(n-1)+"7", pad(n-2)+"-7")
	}
	const total = 160 // two whole blocks and a tail
	for _, e := range []string{
		"12345678", "-12345678", "1234567890123", "-9223372036854775808", "99999999999999999999",
		" 12", "12 ", "\t-5\n", "007", "-01", "0", "-0", "-1234567", "1234567",
		"1.5", "1e3", "-", "+1", "x", "",
	} {
		for _, off := range []int{0, 30, 62, 63, 64, 63 - len(e), 127 - len(e)} {
			if off == 1 || off < 0 {
				continue
			}
			b := e + "," + pad(total-off-len(e)-2) + "7"
			if off > 0 {
				b = pad(off) + b
			}
			t = append(t, b)
		}
	}
	return t
}()

// edgeBodies are compute bodies whose last integers end 1 to 9 bytes
// before the end of the text they are scanned from (the body, or the
// labels text, which ends at its ']'), where the codec's word no longer
// fits.
func edgeBodies() []string {
	var b []string
	for pad := 0; pad <= 7; pad++ {
		sp := strings.Repeat(" ", pad)
		b = append(b, `{"values":[1,1234567]}`+sp, `{"values":[-1234567,-7]}`+sp,
			`{"labels":[1234567,1`+sp+`]}`, `{"batch":[[1234567,7`+sp+`]]}`)
	}
	return b
}

// testBufs lends the codec's tests and benchmarks their value vectors,
// as a server's lists lend its handlers theirs.
var testBufs = newReqBufs(1)

// decodeFull decodes a compute body as the handler does when the text
// index misses: decodeCompute, then parseLabelText on the labels text.
// The labels parseLabelText stores as int32 come back widened into
// Labels, where json.Unmarshal puts them, for the compare.
func decodeFull(data []byte, req *computeRequest, maxN int) error {
	if err := decodeCompute(data, req, maxN, testBufs.getVec); err != nil || req.labelText == nil {
		return err
	}
	err := parseLabelText(data, req, maxN)
	req.labelText = nil // json.Unmarshal never sets it
	if req.labels32 != nil {
		req.Labels = make([]int, len(req.labels32))
		for i, l := range req.labels32 {
			req.Labels[i] = int(l)
		}
		req.labels32 = nil
	}
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
	for _, t := range intTexts {
		f.Add([]byte(`{"labels":[` + t + `],"values":[` + t + `],"batch":[[` + t + `]]}`))
	}
	for _, seed := range edgeBodies() {
		f.Add([]byte(seed))
	}
	for _, t := range blockTexts {
		f.Add([]byte(`{"labels":[` + t + `],"values":[` + t + `],"batch":[[` + t + `],[` + t + `]]}`))
	}
	f.Fuzz(checkDecodeParity)
}

// checkDecodeParity fails t unless data decodes as json.Unmarshal
// decodes it, with no length limit and with a limit of 2.
func checkDecodeParity(t *testing.T, data []byte) {
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
}

// FuzzIntCodec holds both integer loops of the codec to their references
// at the edges of the 8-byte word, of the decoder's 64-byte block and of
// its groups of four (blockTexts, kernelTexts, groupTexts). appendInts must write what
// strconv.AppendInt joined by commas writes, for x shifted right by
// every count, so every width of x from 1 to 19 digits, with either
// sign, repeated past one chunk of the encoder. The decoder must agree
// with json.Unmarshal on text placed as the elements of a values,
// labels and batch array. Beside them, each kernel must do what its Go
// loop does (checkShortInts, checkFormatInts).
func FuzzIntCodec(f *testing.F) {
	for i, t := range slices.Concat(intTexts, blockTexts, kernelTexts, groupTexts) {
		f.Add([]byte(t), int64(i)*0x0123456789abcdef)
	}
	for _, x := range []int64{0, 1, -1, 999999, 1000000, 9999999, 10000000, 99999999, -99999999, 100000000, -100000000, math.MaxInt64, math.MinInt64} {
		f.Add([]byte("1"), x)
	}
	f.Fuzz(func(t *testing.T, text []byte, x int64) {
		var v []int64
		for len(v) <= intsChunk {
			for sh := range 64 {
				v = append(v, x>>sh, -(x >> sh))
			}
		}
		want := []byte{'['}
		for i, y := range v {
			if i > 0 {
				want = append(want, ',')
			}
			want = strconv.AppendInt(want, y, 10)
		}
		want = append(want, ']')
		if got := appendInts(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendInts of x=%d\n got %s\nwant %s", x, got, want)
		}
		checkFormatInts(t, v, 1)
		for _, prefix := range []string{"[", `{"values":[`} {
			checkShortInts(t, append([]byte(prefix), append(text, ']')...), len(prefix))
		}
		for _, array := range [][2]string{{`{"values":[`, `]}`}, {`{"labels":[`, `]}`}, {`{"batch":[[`, `]]}`}} {
			body := append([]byte(array[0]), text...)
			checkDecodeParity(t, append(body, array[1]...))
		}
	})
}

// capArrays is r as a decoder limited to limit elements per array
// reports it: every longer array nil, and overN the longest one's length.
// A batch counts its vectors as an array's elements: past limit of them
// it is nil, while each vector's own length still raises overN.
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
		if capped(len(b)) {
			r.Batch = nil
		}
	}
	return r
}

// computeRoutes are the four compute endpoints.
var computeRoutes = []struct {
	path          string
	reduce, batch bool
}{
	{"/v1/multiprefix", false, false},
	{"/v1/multireduce", true, false},
	{"/v1/multiprefix/batch", false, true},
	{"/v1/multireduce/batch", true, true},
}

// FuzzServeCompute posts arbitrary bytes to each compute route twice on
// one Server: the first post of a canonical body parses its labels, the
// second finds its plan by the labels text. Both answers must be what
// referenceAnswer says: a 200 whose multi or reductions, per vector on
// the batch routes, are core.Serial's, or the same typed 4xx. Never a
// 5xx, except the typed 504 of a deadline the body itself set — on a
// batch route that is a per-vector error instead, or the 504 when the
// deadline passed before any vector answered.
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
		`{"op":"max","backend":"chunked","m":99,"labels":[0,1,2],"values":[1,2,3]}`,
		`{"op":"sum","m":4,"labels":[` + strings.Repeat("1,", 64) + `1],"values":[1]}`,
		`{"op":"sum","m":4,"labels":[1],"values":[` + strings.Repeat("1,", 64) + `1]}`,
		`{"op":"sum","backend":"gpu","m":4,"labels":[` + strings.Repeat("1,", 64) + `1]}`,
		`{"op":"max","m":3,"labels":[0,1,2,1],"batch":[[1,2,3,4],[-5,6,-7,8]]}`,
		`{"op":"sum","m":3,"labels":[0,1,2,1],"batch":[[1,2,3,4],[5,6,7]]}`,
		`{"op":"sum","m":2,"labels":[1],"values":[1],"batch":[` + strings.Repeat("[1],", 64) + `[1]]}`,
		`{"op":"sum","m":2,"labels":[1],"values":[1],"batch":[[` + strings.Repeat("1,", 64) + `1]]}`,
		`{"op":"sum","m":2,"labels":[1],"values":[1],"x":0,"batch":[` + strings.Repeat("[1],", 64) + `[1]]}`,
		`{"op":"xor","m":2,"labels":[1,0],"values":[3,5],"batch":[],"extra":0}`,
	} {
		f.Add([]byte(seed))
	}
	s := New(Options{MaxN: 64, MaxM: 64, Workers: 2, PlanCacheCap: 8})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range computeRoutes {
			want := referenceAnswer(s, body, rt.reduce, rt.batch)
			for post := 1; post <= 2; post++ {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(body)))
				got := fmt.Sprintf("%d/", rec.Code)
				if rec.Code != http.StatusOK {
					var er errorResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Kind == "" {
						t.Fatalf("%q %s: status %d with untyped body %q", body, rt.path, rec.Code, rec.Body.Bytes())
					}
					got += er.Error.Kind
				} else if err := want.check(rec.Body.Bytes(), rt.reduce, rt.batch); err != nil {
					t.Fatalf("%q %s: post %d: %v", body, rt.path, post, err)
				}
				if got != want.status && !(got == "504/"+kindDeadline && want.deadline) {
					t.Fatalf("%q %s: post %d got %s, want %s (%s)", body, rt.path, post, got, want.status, rec.Body.Bytes())
				}
			}
		}
	})
}

// answer is what a compute route must reply to one body.
type answer struct {
	// status is "200/", or the status and error kind of a refusal.
	status string
	// outs are core.Serial's answers for the vectors of a 200: each a
	// multiprefix or, on a reduce route, a reduction vector.
	outs [][]int64
	// vecErr is the error kind every vector of a 200 carries instead of
	// its answer: version_conflict for a pinned request, since nothing
	// moves a plan past version 0 here.
	vecErr string
	// deadline reports that the body set a deadline, which may expire
	// first: a 504 on a single-vector route; on a batch route a
	// per-vector error, or the 504 when no vector answered in time.
	deadline bool
}

// referenceAnswer is the answer s must give a compute body on the route
// that reduce and batch name: the body is decoded by json.Unmarshal and
// checked in the handler's order (operator, backend, the n-limit on
// every array, m, the vectors), then by the plan build's validation,
// which core.Serial shares.
func referenceAnswer(s *Server, body []byte, reduce, batch bool) answer {
	bad := answer{status: "400/" + kindBadInput}
	var r computeRequest
	if err := json.Unmarshal(body, &r); err != nil {
		return bad
	}
	op, ok := ops[r.Op]
	backendName := r.Backend
	if backendName == "" {
		backendName = s.opts.Backend
	}
	vectors := [][]int64{r.Values}
	if batch {
		vectors = r.Batch
	}
	switch {
	case !ok:
		return bad
	case !served(backendName):
		return answer{status: "400/" + kindUnknownBack}
	case r.longest() > s.opts.MaxN || r.M > s.opts.MaxM || len(vectors) == 0:
		return bad
	}
	a := answer{status: "200/", deadline: r.DeadlineMS > 0}
	for _, v := range vectors {
		if len(v) != len(r.Labels) {
			return bad
		}
		res, err := core.Serial(op, v, r.Labels, r.M)
		if err != nil {
			return bad
		}
		if reduce {
			a.outs = append(a.outs, res.Reductions)
		} else {
			a.outs = append(a.outs, res.Multi)
		}
	}
	if r.PinVersion != 0 {
		if !batch {
			a.status = "409/" + kindVersionConflict
		}
		a.vecErr = kindVersionConflict
	}
	return a
}

// check checks a compute route's 200 body against the answer: one
// vector on the single-vector routes, one per result on the batch
// routes.
func (a answer) check(body []byte, reduce, batch bool) error {
	var items []batchItem
	if batch {
		var resp batchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("200 body %q: %v", body, err)
		}
		items = resp.Results
	} else {
		var resp computeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("200 body %q: %v", body, err)
		}
		items = []batchItem{{Multi: resp.Multi, Reductions: resp.Reductions}}
	}
	if len(items) != len(a.outs) {
		return fmt.Errorf("%d results, want %d", len(items), len(a.outs))
	}
	for i, it := range items {
		switch {
		case it.Error != nil && (it.Error.Kind == a.vecErr || it.Error.Kind == kindDeadline && a.deadline):
			continue
		case it.Error != nil || a.vecErr != "":
			return fmt.Errorf("result %d: %+v, want error kind %q", i, it, a.vecErr)
		}
		got, other := it.Multi, it.Reductions
		if reduce {
			got, other = other, got
		}
		if len(other) != 0 || len(got) != len(a.outs[i]) || (len(got) > 0 && !reflect.DeepEqual(got, a.outs[i])) {
			return fmt.Errorf("result %d: %+v, core.Serial %v", i, it, a.outs[i])
		}
	}
	return nil
}

// TestOverLimitAllocs posts arrays of 2^20 elements, and a batch of 2^20
// vectors, to a server with MaxN 1024 and bounds what each request
// allocates beyond reading its body: the decoder counts an over-long
// array's elements and stores none of it, and the request gets the
// typed n-limit 400.
func TestOverLimitAllocs(t *testing.T) {
	s := New(Options{MaxN: 1024})
	defer s.Close()
	long := "[" + strings.Repeat("1,", 1<<20-1) + "1]"
	for _, tc := range []struct{ name, body string }{
		{"labels", `{"op":"sum","m":4,"labels":` + long + `}`},
		{"values", `{"op":"sum","m":4,"labels":[1],"values":` + long + `}`},
		{"batch", `{"op":"sum","m":4,"labels":[1],"batch":[[1],` + long + `]}`},
		{"vectors", `{"op":"sum","m":4,"labels":[1],"batch":[` + strings.Repeat("[1],", 1<<20-1) + `[1]]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			read := totalAlloc(func() {
				if _, err := readBody(nil, bytes.NewReader(body), int64(len(body))); err != nil {
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

// TestWarmComputeAllocs drives warm requests through Handler() on the
// four compute routes and bounds the bytes each allocates: the body and
// response buffers and every value and result vector come from the
// server's lists, so what is left does not grow with n and stays small
// at n=2^16. Each of three runs is bounded, the second and third after
// two collections, which the lists outlive.
func TestWarmComputeAllocs(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const batch = 2
	perRequest := func(path string, body []byte) []uint64 {
		serve := func() {
			r, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			rec.Body = nil // drops the body, so the count is the handler's alone
			s.Handler().ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", path, rec.Code)
			}
		}
		// Builds the plan, indexes its labels, runs the auto plan's
		// trial at its trialHits-th hit and fills the lists.
		for range trialHits + 1 {
			serve()
		}
		var runs []uint64
		for run := range 3 {
			if run > 0 {
				runtime.GC()
				runtime.GC()
			}
			const reqs = 10
			runs = append(runs, totalAlloc(func() {
				for range reqs {
					serve()
				}
			})/reqs)
		}
		return runs
	}
	for _, rt := range computeRoutes {
		got := map[int][]uint64{}
		for _, n := range []int{1 << 12, 1 << 16} {
			body := wireBody(t, n, 256)
			if rt.batch {
				var r computeRequest
				if err := json.Unmarshal(body, &r); err != nil {
					t.Fatal(err)
				}
				for range batch {
					r.Batch = append(r.Batch, r.Values)
				}
				r.Values = nil
				var err error
				if body, err = json.Marshal(r); err != nil {
					t.Fatal(err)
				}
			}
			got[n] = perRequest(rt.path, body)
		}
		t.Logf("%s: %v B per request at n=2^12, %v B at n=2^16", rt.path, got[1<<12], got[1<<16])
		// The response's Content-Length takes a digit more at n=2^16.
		for run, b := range got[1<<16] {
			if b > got[1<<12][run]+8 || b > 16<<10 {
				t.Errorf("%s, run %d: %d B per request at n=2^12, %d B at n=2^16; want no growth and at most 16 KiB",
					rt.path, run, got[1<<12][run], b)
			}
		}
	}
}

// TestComputeEncodeParity pins appendCompute and appendBatch byte for
// byte to what json.Encoder writes for the same response.
func TestComputeEncodeParity(t *testing.T) {
	for _, r := range []computeResponse{
		{Backend: "auto", Op: "sum", N: 3, M: 2, Multi: []int64{0, 5, -1}, Coalesced: 1},
		{Backend: "serial", Op: "max", N: 3, M: 2, Multi: []int64{}, Coalesced: 2},
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
	long := make([]int64, 3*intsChunk+5) // past the encoder's chunks
	for i := range long {
		long[i] = int64(i*i*i) - 1e8
	}
	for _, r := range []batchResponse{
		{Backend: "auto", Op: "sum", N: 3, M: 2, Results: []batchItem{
			{Multi: []int64{0, 5, -1}, Coalesced: 2},
			{Error: &apiError{Kind: kindDeadline, Message: "context deadline exceeded"}},
			{Multi: []int64{1, 2, 3}, Coalesced: 1, Fallback: "serial"},
		}, Failed: 1},
		{Backend: "serial", Op: "max", N: 0, M: 4, Results: []batchItem{
			{Reductions: []int64{math.MinInt64, math.MaxInt64, 0, 9}},
			{Reductions: long},
			{Multi: []int64{}, Reductions: []int64{}},
			{Fallback: "serial"},
			{},
		}},
		{Backend: "chunked", Op: "xor", Results: []batchItem{
			{Error: &apiError{Kind: kindEnginePanic, Message: `engine "chunked" panicked: <a&b> "q\ \x00 é \xff`}},
			{Error: &apiError{}},
		}, Failed: 2},
		{Backend: "<a&b>", Op: "\x7f", N: -1, M: math.MaxInt64, Results: []batchItem{}, Failed: -1},
		{},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := appendBatch(nil, &r); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendBatch(%+v)\n got %q\nwant %q", r, got, want.Bytes())
		}
	}
}

// TestWireAllocs pins the codec's allocations: a warm encode makes
// none, decoding a canonical body makes none once its values vector
// comes back to the list, since the labels stay text, and parsing that
// text makes the labels slice.
func TestWireAllocs(t *testing.T) {
	body := wireBody(t, 4096, 256)
	var req computeRequest
	if !scanCompute(body, &req, math.MaxInt, testBufs.getVec) || req.labelText == nil {
		t.Fatal("the scanner refused a canonical body")
	}
	if got := testing.AllocsPerRun(20, func() {
		req.putVectors(testBufs)
		req = computeRequest{}
		if err := decodeCompute(body, &req, math.MaxInt, testBufs.getVec); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("warm decode: %v allocs, want 0", got)
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

// sweepDigits are the value widths of the codec benchmarks' digit-width
// rows: inside the SWAR paths (1 to 7 digits decoded, below 10^8
// encoded), at their edge, and on the strconv and scanInt fallbacks.
var sweepDigits = []int{1, 4, 7, 8, 12, 19}

// digitsValues returns n values of exactly digits decimal digits, half
// of them negative.
func digitsValues(n, digits int) []int64 {
	rng := rand.New(rand.NewSource(int64(digits)))
	lo, hi := int64(0), int64(9)
	for range digits - 1 {
		lo, hi = max(lo*10, 10), hi*10+9
	}
	if digits == 19 {
		hi = math.MaxInt64
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = lo + rng.Int63n(hi-lo+1)
		if rng.Intn(2) == 0 {
			v[i] = -v[i]
		}
	}
	return v
}

// codecRows runs the codec benchmark row f as name, on the amd64
// kernels where the CPU runs them, and as name_go on the Go loops.
func codecRows(b *testing.B, name string, f func(*testing.B)) {
	b.Run(name, f)
	b.Run(name+"_go", func(b *testing.B) {
		defer func(on bool) { useKernels = on }(useKernels)
		useKernels = false
		f(b)
	})
}

// The codec benchmarks run at the service benchmark's shape, n=2^16 and
// m=256, each beside encoding/json doing the same job and each codec row
// beside its _go row (codecRows). BenchmarkComputeDecode's codec row
// parses the labels, as a text-index miss does; its text_hit row decodes
// the rest of the body and finds the labels by their bytes instead, as a
// warm request does. The digits=w rows decode a body whose values all
// have w digits, leaving its labels as text. Each row hands its value
// vectors back to a list, as the handler does.
func BenchmarkComputeDecode(b *testing.B) {
	body := wireBody(b, 1<<16, 256)
	codecRows(b, "codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req computeRequest
			if err := decodeFull(body, &req, math.MaxInt); err != nil {
				b.Fatal(err)
			}
			req.putVectors(testBufs)
		}
	})
	codecRows(b, "text_hit", func(b *testing.B) {
		var st stats
		c := newPlanCache(1, 1, &st, newReqBufs(1))
		defer c.closeAll()
		var req computeRequest
		if err := decodeFull(body, &req, math.MaxInt); err != nil {
			b.Fatal(err)
		}
		e, err := acquireLabels(c, context.Background(), "serial", core.AddInt64, req.Labels, req.M)
		if err != nil {
			b.Fatal(err)
		}
		c.release(e)
		req = computeRequest{}
		if err := decodeCompute(body, &req, math.MaxInt, testBufs.getVec); err != nil {
			b.Fatal(err)
		}
		c.storeText(e, c.textKey("serial", core.AddInt64.Name, req.M, req.labelText), req.labelText)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			req = computeRequest{}
			if err := decodeCompute(body, &req, math.MaxInt, testBufs.getVec); err != nil {
				b.Fatal(err)
			}
			hit := c.acquireText(context.Background(), c.textKey("serial", core.AddInt64.Name, req.M, req.labelText), req.labelText)
			if hit == nil {
				b.Fatal("text index missed")
			}
			c.release(hit)
			req.putVectors(testBufs)
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
	for _, digits := range sweepDigits {
		req := computeRequest{Op: "sum", M: 256, Labels: make([]int, 1<<16), Values: digitsValues(1<<16, digits)}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		codecRows(b, fmt.Sprintf("digits=%d", digits), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				req = computeRequest{}
				if err := decodeCompute(body, &req, math.MaxInt, testBufs.getVec); err != nil {
					b.Fatal(err)
				}
				req.putVectors(testBufs)
			}
		})
	}
}

// BenchmarkComputeEncode's codec row encodes the multiprefix of the
// service benchmark's body, the response svc-prefix-64k prices; its
// digits=w rows encode values that all have w digits.
func BenchmarkComputeEncode(b *testing.B) {
	var req computeRequest
	if err := decodeFull(wireBody(b, 1<<16, 256), &req, math.MaxInt); err != nil {
		b.Fatal(err)
	}
	res, err := core.Serial(core.AddInt64, req.Values, req.Labels, req.M)
	if err != nil {
		b.Fatal(err)
	}
	resp := computeResponse{Backend: "auto", Op: req.Op, N: len(req.Labels), M: req.M, Multi: res.Multi, Coalesced: 1}
	out := appendCompute(nil, &resp)
	codecRows(b, "codec", func(b *testing.B) {
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
	for _, digits := range sweepDigits {
		resp := computeResponse{Backend: "auto", Op: "sum", N: 1 << 16, M: 256, Multi: digitsValues(1<<16, digits), Coalesced: 1}
		out := appendCompute(nil, &resp)
		codecRows(b, fmt.Sprintf("digits=%d", digits), func(b *testing.B) {
			b.SetBytes(int64(len(out)))
			b.ReportAllocs()
			for b.Loop() {
				out = appendCompute(out[:0], &resp)
			}
		})
	}
}
