package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// This file is the service's wire codec on the compute path. A
// multiprefix request is two long integer arrays, and decoding them
// through encoding/json's reflection costs over a hundred times the
// multiprefix itself, so canonical compute bodies take a single-pass
// scanner instead. json.Unmarshal stays the reference: every body the scanner
// does not accept goes to it, and FuzzComputeDecodeParity holds the
// scanner to its results. The scanner leaves the labels array as text,
// because a warm request's plan is found by those bytes alone (see the
// plan cache's text index) and its labels are never parsed.

// maxPooledBuf caps the wire buffers kept for reuse. A buffer that grew
// past it for one large body is dropped, so the pool never pins memory
// that a rare request needed.
const maxPooledBuf = 4 << 20

// wireBuf is a pooled byte buffer for request bodies and encoded
// responses. Nothing decoded from it may alias it: it is reused as soon
// as the handler that took it returns it.
type wireBuf struct{ b []byte }

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

func getWireBuf() *wireBuf { return wirePool.Get().(*wireBuf) }

func putWireBuf(wb *wireBuf) {
	if cap(wb.b) > maxPooledBuf {
		return
	}
	wb.b = wb.b[:0]
	wirePool.Put(wb)
}

// readBody appends everything r yields to b. b grows only as bytes
// arrive, never from a length the client declared.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// readRequest reads the whole size-bounded request body into a pooled
// buffer, writing the typed error itself on failure: 413 when the body
// exceeds MaxBody, 400 when it cannot be read. The caller returns the
// buffer with putWireBuf once nothing it decoded aliases it.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request) (*wireBuf, bool) {
	wb := getWireBuf()
	var err error
	wb.b, err = readBody(wb.b, http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	if err == nil {
		return wb, true
	}
	putWireBuf(wb)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeError(w, http.StatusRequestEntityTooLarge, kindTooLarge,
			fmt.Sprintf("body exceeds %d bytes", s.opts.MaxBody))
		return nil, false
	}
	s.writeError(w, http.StatusBadRequest, kindBadInput, "reading body: "+err.Error())
	return nil, false
}

// decodeJSON reads the request body and decodes it into v with
// json.Unmarshal, writing the typed error itself on failure: 413 or 400
// as readRequest, and 400 when the body is not exactly one JSON value
// of v's shape.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	wb, ok := s.readRequest(w, r)
	if !ok {
		return false
	}
	defer putWireBuf(wb)
	if err := json.Unmarshal(wb.b, v); err != nil {
		s.badJSON(w, err)
		return false
	}
	return true
}

// badJSON writes the 400 for a body that does not decode.
func (s *Server) badJSON(w http.ResponseWriter, err error) {
	s.writeError(w, http.StatusBadRequest, kindBadInput, "malformed JSON: "+err.Error())
}

// decodeCompute decodes a compute body into req, which must be zero. A
// canonical body takes the scanner, which leaves the labels array
// unparsed in req.labelText so that the plan cache can look it up by
// its bytes; parseLabelText parses it. The scanner stores no array
// longer than maxN (see scanInts). Any other body goes to
// json.Unmarshal, which decodes every array whole, as before.
func decodeCompute(data []byte, req *computeRequest, maxN int) error {
	if scanCompute(data, req, maxN) {
		return nil
	}
	*req = computeRequest{}
	return json.Unmarshal(data, req)
}

// parseLabelText parses the labels text decodeCompute left in req into
// req.Labels and keeps the text. A text the scanner cannot parse sends
// the whole body to json.Unmarshal, as any body the scanner refuses,
// and req.labelText ends nil.
func parseLabelText(data []byte, req *computeRequest, maxN int) error {
	s := wireScanner{d: req.labelText, maxLen: maxN}
	if labels, ok := scanInts[int](&s); ok && s.i == len(s.d) {
		req.Labels = labels
		req.overN = max(req.overN, s.over)
		return nil
	}
	*req = computeRequest{}
	return json.Unmarshal(data, req)
}

// One bit per computeRequest JSON key, so that the scanner can refuse a
// repeated key.
const (
	keyOp = 1 << iota
	keyBackend
	keyM
	keyLabels
	keyValues
	keyBatch
	keyDeadline
	keyPin
)

// scanCompute decodes a canonical compute body into req in one pass and
// reports whether it did. Canonical means: one object whose keys are
// computeRequest's exact JSON names, each at most once; ASCII strings
// without escapes or control bytes; integers without fraction or
// exponent that fit their field; arrays of those; and nothing but
// whitespace after the object. For every such body json.Unmarshal
// yields the same struct once parseLabelText has parsed the labels,
// which the scanner leaves as text: the bytes from the array's '[' to
// its first ']', aliasing data. On false req may hold partial fields.
func scanCompute(data []byte, req *computeRequest, maxN int) bool {
	s := wireScanner{d: data, maxLen: maxN}
	if !s.consume('{') {
		return false
	}
	var seen uint
	for {
		key, ok := s.plainString()
		if !ok || !s.consume(':') {
			return false
		}
		var bit uint
		switch string(key) {
		case "op":
			bit = keyOp
			req.Op, ok = s.name()
		case "backend":
			bit = keyBackend
			req.Backend, ok = s.name()
		case "m":
			bit = keyM
			req.M, ok = scanInt[int](&s)
		case "labels":
			bit = keyLabels
			req.labelText, ok = s.arrayText()
		case "values":
			bit = keyValues
			req.Values, ok = scanInts[int64](&s)
		case "batch":
			bit = keyBatch
			req.Batch, ok = s.batch()
		case "deadline_ms":
			bit = keyDeadline
			req.DeadlineMS, ok = scanInt[int64](&s)
		case "pin_version":
			bit = keyPin
			if s.next() == '-' { // json.Unmarshal refuses even -0 for a uint64
				return false
			}
			var v int64
			v, ok = scanInt[int64](&s)
			req.PinVersion = uint64(v)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		switch s.next() {
		case ',':
			s.i++
		case '}':
			s.i++
			req.overN = s.over
			return s.end()
		default:
			return false
		}
	}
}

// wireScanner walks a JSON body; i is the next unread byte. scanInts
// stores no array longer than maxLen, and over is the length of the
// longest one it refused to store.
type wireScanner struct {
	d            []byte
	i            int
	maxLen, over int
}

// next skips whitespace and returns the next byte, or 0 at the end.
func (s *wireScanner) next() byte {
	for s.i < len(s.d) {
		switch c := s.d[s.i]; c {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return c
		}
	}
	return 0
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *wireScanner) consume(c byte) bool {
	if s.next() != c {
		return false
	}
	s.i++
	return true
}

// end reports whether only whitespace is left.
func (s *wireScanner) end() bool {
	s.next()
	return s.i == len(s.d)
}

// plainString scans an ASCII string without escapes or control bytes
// and returns its bytes, which alias the body.
func (s *wireScanner) plainString() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	for j := s.i; j < len(s.d); j++ {
		switch c := s.d[j]; {
		case c == '"':
			b := s.d[s.i:j]
			s.i = j + 1
			return b, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// wireNames interns the operator and backend names, so that decoding a
// canonical body allocates nothing but its slices.
var wireNames = func() map[string]string {
	m := make(map[string]string, len(ops)+len(serviceBackends))
	for k := range ops {
		m[k] = k
	}
	for k := range serviceBackends {
		m[k] = k
	}
	return m
}()

// name scans a plain string and returns it as a string that does not
// alias the body.
func (s *wireScanner) name() (string, bool) {
	b, ok := s.plainString()
	if !ok {
		return "", false
	}
	if v, ok := wireNames[string(b)]; ok {
		return v, true
	}
	return string(b), true
}

// scanInt scans one integer that fits T. Up to 19 digits are taken,
// which covers every int64; longer literals are left to the reference
// decoder. The caller rejects whatever follows that is not a separator,
// so a fraction or exponent never passes as an integer.
func scanInt[T int | int64](s *wireScanner) (T, bool) {
	s.next()
	d, i := s.d, s.i
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start := i
	var mag uint64
	for i < len(d) && d[i]-'0' <= 9 {
		mag = mag*10 + uint64(d[i]-'0')
		i++
	}
	nd := i - start
	if nd == 0 || nd > 19 || (nd > 1 && d[start] == '0') {
		return 0, false
	}
	var v int64
	switch {
	case !neg && mag <= math.MaxInt64:
		v = int64(mag)
	case neg && mag <= 1<<63:
		v = int64(-mag)
	default:
		return 0, false
	}
	if int64(T(v)) != v {
		return 0, false
	}
	s.i = i
	return T(v), true
}

// arrayText returns an array's bytes from its '[' to the first ']'
// without parsing them; they alias the body. For an array of integers
// that is the whole array.
func (s *wireScanner) arrayText() ([]byte, bool) {
	if s.next() != '[' {
		return nil, false
	}
	end := bytes.IndexByte(s.d[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	b := s.d[s.i : s.i+end+1]
	s.i += end + 1
	return b, true
}

// scanInts scans an array of integers that fit T into a slice presized
// by the array's comma count. An array whose comma count puts it over
// maxLen is still scanned, so that a malformed one is refused as such,
// but nothing is allocated for it: it yields a nil slice and raises
// over to its length. An empty array yields an empty, non-nil slice, as
// it does from json.Unmarshal.
func scanInts[T int | int64](s *wireScanner) ([]T, bool) {
	if !s.consume('[') {
		return nil, false
	}
	if s.next() == ']' {
		s.i++
		return []T{}, true
	}
	end := bytes.IndexByte(s.d[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	var out []T
	if c := bytes.Count(s.d[s.i:s.i+end], []byte{','}) + 1; c <= s.maxLen {
		out = make([]T, 0, c)
	}
	for n := 1; ; n++ {
		v, ok := scanInt[T](s)
		if !ok {
			return nil, false
		}
		if out != nil {
			out = append(out, v)
		}
		switch s.next() {
		case ',':
			s.i++
		case ']':
			s.i++
			if out == nil {
				s.over = max(s.over, n)
			}
			return out, true
		default:
			return nil, false
		}
	}
}

// batch scans an array of int64 arrays.
func (s *wireScanner) batch() ([][]int64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	out := [][]int64{}
	if s.next() == ']' {
		s.i++
		return out, true
	}
	for {
		v, ok := scanInts[int64](s)
		if !ok {
			return nil, false
		}
		out = append(out, v)
		switch s.next() {
		case ',':
			s.i++
		case ']':
			s.i++
			return out, true
		default:
			return nil, false
		}
	}
}

// writeCompute sends a single-vector compute response, append-encoded
// into a pooled buffer and sent with its Content-Length.
func writeCompute(w http.ResponseWriter, resp *computeResponse) {
	wb := getWireBuf()
	defer putWireBuf(wb)
	wb.b = appendCompute(wb.b, resp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(wb.b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(wb.b)
}

// appendCompute appends r's JSON encoding to b: byte for byte what
// json.Encoder.Encode writes for it, trailing newline included.
func appendCompute(b []byte, r *computeResponse) []byte {
	b = append(b, `{"backend":`...)
	b = appendString(b, r.Backend)
	b = append(b, `,"op":`...)
	b = appendString(b, r.Op)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(r.M), 10)
	if len(r.Multi) > 0 {
		b = append(b, `,"multi":`...)
		b = appendInts(b, r.Multi)
	}
	if len(r.Reductions) > 0 {
		b = append(b, `,"reductions":`...)
		b = appendInts(b, r.Reductions)
	}
	b = append(b, `,"coalesced":`...)
	b = strconv.AppendInt(b, int64(r.Coalesced), 10)
	if r.Fallback != "" {
		b = append(b, `,"fallback":`...)
		b = appendString(b, r.Fallback)
	}
	return append(b, "}\n"...)
}

func appendInts(b []byte, v []int64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string. Printable ASCII that needs no
// escape is copied; anything else goes through json.Marshal, which
// escapes it as json.Encoder does, HTML characters included.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
