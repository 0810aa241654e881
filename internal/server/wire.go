package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
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

// maxPooledBuf caps the wire buffers kept for reuse, and the buffer a
// body's declared length may size before its bytes arrive. A buffer
// that grew past it for one large body is dropped, so the free list
// never pins memory that a rare request needed.
const maxPooledBuf = 4 << 20

// maxVecClass is the largest size class of the vector lists: 2^19
// int64s, the wire buffers' 4 MiB cap. A longer vector is allocated and
// left to the garbage collector.
const maxVecClass = 19

// freeList is a LIFO list of idle buffers shared by every goroutine,
// whichever P it runs on, so that the buffer one request releases is the
// next one any other request takes. It keeps at most bound buffers: one
// released into a full list is left to the garbage collector. A
// collection does not empty it.
type freeList[T any] struct {
	mu    sync.Mutex
	bound int
	items []T
}

// get takes the most recently released buffer, or reports false when
// the list is empty.
func (l *freeList[T]) get() (x T, ok bool) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		x, ok = l.items[n-1], true
		var zero T
		l.items[n-1] = zero // the list no longer holds it
		l.items = l.items[:n-1]
	}
	l.mu.Unlock()
	return x, ok
}

// put releases x to the list, or to the garbage collector when the list
// is full.
func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	if len(l.items) < l.bound {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}

// reqBufs is a server's idle request buffers: the wire buffers that
// carry request bodies and encoded responses, and the compute path's
// value and result vectors by size class. Class k holds vectors whose
// capacity is 2^k, or a larger capacity below 2^(k+1) for a vector that
// json.Unmarshal made. Admission bounds what the lists keep: an admitted
// request holds one wire buffer at a time, and a single-vector request
// two vectors, its values and its result, so the wire list keeps at
// most MaxInFlight buffers and each vector class 2×MaxInFlight.
type reqBufs struct {
	wire freeList[[]byte]
	vecs [maxVecClass + 1]freeList[[]int64]
}

// newReqBufs returns empty lists bounded for maxInFlight admitted
// requests.
func newReqBufs(maxInFlight int) *reqBufs {
	b := &reqBufs{wire: freeList[[]byte]{bound: maxInFlight}}
	for k := range b.vecs {
		b.vecs[k].bound = 2 * maxInFlight
	}
	return b
}

// getWire returns an empty wire buffer, nil when none is idle. Nothing
// decoded from it may alias it once it is released: the next request
// takes it.
func (b *reqBufs) getWire() []byte {
	w, _ := b.wire.get()
	return w[:0]
}

// putWire releases w, unless it grew past maxPooledBuf.
func (b *reqBufs) putWire(w []byte) {
	if cap(w) > 0 && cap(w) <= maxPooledBuf {
		b.wire.put(w)
	}
}

// getVec returns a vector of length n whose contents are unspecified:
// the caller writes every element before reading any.
func (b *reqBufs) getVec(n int) []int64 {
	k := bits.Len(uint(n - 1)) // the smallest class that holds n
	if n == 0 || k > maxVecClass {
		return make([]int64, n)
	}
	if v, ok := b.vecs[k].get(); ok {
		return v[:n]
	}
	return make([]int64, n, 1<<k)
}

// putVec releases v to its size class. Nothing may use v afterwards.
func (b *reqBufs) putVec(v []int64) {
	c := cap(v)
	if c == 0 || c > 1<<maxVecClass {
		return
	}
	b.vecs[bits.Len(uint(c))-1].put(v)
}

// putVectors releases r's value vectors to bufs.
func (r *computeRequest) putVectors(bufs *reqBufs) {
	bufs.putVec(r.Values)
	for _, v := range r.Batch {
		bufs.putVec(v)
	}
}

// readBody appends everything r yields to b. A body that declares its
// length D (declared, or -1 when unknown) is sized once: when b must
// grow, it grows straight to D + D/8 + 1, room for the whole body and
// the read that finds its end, and headroom that lets a reused buffer
// take a next body a little longer than this one without growing
// again. That holds while D + D/8 + 1 fits maxPooledBuf, which bounds
// what a client that declares a length and stalls can pin. Past it, and
// without a declared length, b grows only as bytes arrive: when it is
// full it doubles, from 512 bytes, capped at D + D/8 + 1 once doubling
// would reach D, so a client that declares far more than it sends holds
// at most twice what it sent.
func readBody(b []byte, r io.Reader, declared int64) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			next := max(2*cap(b), 512)
			if limit := declared + declared/8 + 1; declared > 0 && limit > int64(cap(b)) && (limit <= maxPooledBuf || int64(next) >= declared) {
				next = max(int(limit), 512)
			}
			b = append(make([]byte, 0, next), b...)
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

// readRequest reads the whole size-bounded request body into a wire
// buffer from the server's free list, writing the typed error itself on
// failure: 413 when the body exceeds MaxBody, 400 when it cannot be
// read. The caller releases the buffer with putWire once nothing it
// decoded aliases it.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := readBody(s.bufs.getWire(), http.MaxBytesReader(w, r.Body, s.opts.MaxBody), r.ContentLength)
	if err == nil {
		return body, true
	}
	s.bufs.putWire(body)
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
	body, ok := s.readRequest(w, r)
	if !ok {
		return false
	}
	defer s.bufs.putWire(body)
	if err := json.Unmarshal(body, v); err != nil {
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
// longer than maxN (see scanInts), and takes its value vectors from
// vec. Any other body goes to json.Unmarshal, which decodes every array
// whole, as before.
func decodeCompute(data []byte, req *computeRequest, maxN int, vec func(int) []int64) error {
	if scanCompute(data, req, maxN, vec) {
		return nil
	}
	*req = computeRequest{}
	return json.Unmarshal(data, req)
}

// parseLabelText parses the labels text decodeCompute left in req into
// req.labels32, the int32 form a plan keeps, and keeps the text. A text
// the scanner cannot parse, a label beyond int32 included, sends the
// whole body to json.Unmarshal, as any body the scanner refuses, and
// req.labelText ends nil.
func parseLabelText(data []byte, req *computeRequest, maxN int) error {
	s := wireScanner{d: req.labelText, maxLen: maxN}
	// Labels are not pooled: the plan built from them keeps them.
	if labels, ok := scanInts(&s, func(n int) []int32 { return make([]int32, n) }); ok && s.i == len(s.d) {
		req.labels32 = labels
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
// its first ']', aliasing data. The values and batch vectors come from
// vec. On false req may hold partial fields.
func scanCompute(data []byte, req *computeRequest, maxN int, vec func(int) []int64) bool {
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
			req.Values, ok = scanInts(&s, vec)
		case "batch":
			bit = keyBatch
			req.Batch, ok = s.batch(vec)
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
// and batch store no array longer than maxLen, and over is the length
// of the longest one they refused to store. While drop is set, scanInts
// stores nothing: batch sets it for the vectors of an over-long batch.
type wireScanner struct {
	d            []byte
	i            int
	maxLen, over int
	drop         bool
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
	m := make(map[string]string, len(ops)+len(servedBackends))
	for k := range ops {
		m[k] = k
	}
	for _, k := range servedBackends {
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
// so a fraction or exponent never passes as an integer. Digits are taken
// two at a time, which halves the chain of multiply-adds, and the sign
// is applied without a branch.
func scanInt[T int | int32 | int64](s *wireScanner) (T, bool) {
	s.next()
	d, i := s.d, s.i
	neg := 0
	if i < len(d) && d[i] == '-' {
		neg = 1
	}
	i += neg
	start := i
	var mag uint64
	for i+1 < len(d) && d[i]-'0' <= 9 && d[i+1]-'0' <= 9 {
		mag = mag*100 + uint64(d[i]-'0')*10 + uint64(d[i+1]-'0')
		i += 2
	}
	if i < len(d) && d[i]-'0' <= 9 {
		mag = mag*10 + uint64(d[i]-'0')
		i++
	}
	nd := i - start
	if nd == 0 || nd > 19 || (nd > 1 && d[start] == '0') || mag > math.MaxInt64+uint64(neg) {
		return 0, false
	}
	v := int64(mag^-uint64(neg)) + int64(neg)
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

// Codec names the integer codec's loops this process runs: "avx2" for
// the amd64 kernels, chosen at start-up where the CPU has AVX2, or "go"
// for the SWAR Go loops.
func Codec() string {
	if useKernels {
		return "avx2"
	}
	return "go"
}

// The SWAR ("SIMD within a register") constants of the integer codec:
// each holds one value in every byte lane of a 64-bit word.
const (
	swarZeros  = 0x3030303030303030 // '0'
	swarCommas = 0x2c2c2c2c2c2c2c2c // ','
	swarLow7   = 0x7f7f7f7f7f7f7f7f // all but a lane's top bit
	swarOver9  = 0x7676767676767676 // carries into a lane's top bit from 10 up
	swarTops   = 0x8080808080808080 // a lane's top bit
	// swarGather moves the top bits of the eight lanes, shifted down to
	// each lane's bit 0, into the word's top byte, lane j to bit 56+j.
	swarGather = 0x0102040810204080
)

// scanInts scans an array of integers that fit T into a slice from
// alloc, of the array's comma count plus one elements. An array whose
// count puts it over maxLen, or any array while drop is set, is still
// scanned, so that a malformed one is refused as such, but nothing is
// taken for it: it yields a nil slice, and one over maxLen raises over
// to its length. An empty array yields an empty, non-nil slice, as it
// does from json.Unmarshal.
//
// The pass walks the array in whole 64-byte blocks from its first
// element and finds each element's end from its block's comma mask, so
// that where an element starts depends on the mask alone, never on
// parsing the element before it. A short element, an optional '-' and
// one to seven digits without a leading zero, is parsed by shortInts
// from the 8-byte word that ends at its comma. Any other element
// (whitespace, a leading zero, eight digits or more, anything malformed)
// goes to scanInt where it starts, and the pass resumes at its comma
// once only whitespace is left before it. The elements after the last
// whole block go to scanInt one by one. Both paths read the same text as
// the same value, so json.Unmarshal stays the reference for either.
func scanInts[T int32 | int64](s *wireScanner, alloc func(int) []T) ([]T, bool) {
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
	c := bytes.Count(s.d[s.i:s.i+end], []byte{','}) + 1
	if c <= s.maxLen && !s.drop {
		out = alloc(c)
	}
	k := 0 // the elements scanned, which never pass c
	d, start, closing := s.d, s.i, s.i+end
	base, mask := start-64, uint64(0) // shortInts moves on to the first block
	for {
		if base, mask, start, k = shortInts(d, base, closing, mask, start, out, k); mask == 0 {
			break
		}
		// The element that ends at the mask's first comma is not short,
		// and neither is a next one of more than eight bytes, or of
		// eight without a sign: scanInt takes each where it starts.
		for {
			comma := base + bits.TrailingZeros64(mask)
			s.i = start
			v, ok := scanInt[T](s)
			if !ok || s.i != comma && s.next() != ',' {
				return nil, false
			}
			if out != nil {
				out[k] = v
			}
			k++
			start = comma + 1
			if mask &= mask - 1; mask == 0 {
				break
			}
			if w := base + bits.TrailingZeros64(mask) - start; w < 8 || w == 8 && d[start] == '-' {
				break
			}
		}
	}
	s.i = start
	for {
		v, ok := scanInt[T](s)
		if !ok {
			return nil, false
		}
		if out != nil {
			out[k] = v
		}
		k++
		switch s.next() {
		case ',':
			s.i++
		case ']':
			s.i++
			if c > s.maxLen {
				s.over = max(s.over, c)
			}
			return out, true
		default:
			return nil, false
		}
	}
}

// shortIntsGo parses the elements that end at the commas mask marks in
// the block at base, then at the commas of each whole block up to
// closing, the first of them starting at start, into out from index k
// on, storing nothing when out is nil. It stops at the first element
// that is not an optional '-' and one to seven digits without a leading
// zero, and returns its block, the mask from its comma on, where it
// starts and the index it would take; past the last whole block the
// mask it returns is zero. It is shortInts where no kernel serves, and
// the reference the amd64 kernel is tested against.
func shortIntsGo[T int32 | int64](d []byte, base, closing int, mask uint64, start int, out []T, k int) (int, uint64, int, int) {
	for {
		for ; mask != 0; mask &= mask - 1 {
			comma := base + bits.TrailingZeros64(mask)
			neg := 0
			if d[start] == '-' {
				neg = 1
			}
			nd := comma - start - neg
			if uint(nd-1) >= 7 || comma < 8 {
				return base, mask, start, k
			}
			// The digits fill the word's top nd lanes, the first and most
			// significant lowest; the lanes below them hold the sign and
			// whatever text came before.
			x := binary.LittleEndian.Uint64(d[comma-8:]) ^ swarZeros
			sh := uint(64 - 8*nd)
			nonDigit := ((x & swarLow7) + swarOver9 | x) & swarTops
			if nonDigit>>sh != 0 || x>>sh&0xff == 0 && nd > 1 {
				return base, mask, start, k
			}
			if out != nil {
				out[k] = T((int64(parseDigits(x>>sh<<sh)) ^ -int64(neg)) + int64(neg))
			}
			k++
			start = comma + 1
		}
		if base += 64; base+64 > closing {
			return base, 0, start, k
		}
		mask = commaMask((*[64]byte)(d[base:]))
	}
}

// commaMask returns the comma mask of a 64-byte block: bit j is set when
// b[j] is a comma.
func commaMask(b *[64]byte) uint64 {
	return commaByte(b[0:8]) | commaByte(b[8:16])<<8 | commaByte(b[16:24])<<16 | commaByte(b[24:32])<<24 |
		commaByte(b[32:40])<<32 | commaByte(b[40:48])<<40 | commaByte(b[48:56])<<48 | commaByte(b[56:64])<<56
}

// commaByte returns the comma mask of an 8-byte word. It marks the comma
// lanes exactly (a lane's top bit survives the add only when the lane,
// less ',', is not zero) and gathers their top bits into one byte.
func commaByte(w []byte) uint64 {
	x := binary.LittleEndian.Uint64(w) ^ swarCommas
	return (^((x & swarLow7) + swarLow7 | x) & swarTops) >> 7 * swarGather >> 56
}

// parseDigits returns the value of the decimal digits in the top lanes
// of x, the first and most significant in the lowest of them, each byte
// less '0', with every lane below them zero. Each step joins
// neighbouring lanes, 1+1, 2+2 and 4+4 digits, by one multiply and one
// shift; the zero lanes below add leading zeros.
func parseDigits(x uint64) uint64 {
	x = (x * (1 + 10<<8) >> 8) & 0x00ff00ff00ff00ff
	x = (x * (1 + 100<<16) >> 16) & 0x0000ffff0000ffff
	return x * (1 + 10000<<32) >> 32
}

// batch scans an array of int64 arrays into vectors from vec. It counts
// the vectors as scanInts counts elements: past maxLen it stores none of
// them, still scanning the rest, and raises over to the vector count.
func (s *wireScanner) batch(vec func(int) []int64) ([][]int64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	out := [][]int64{}
	if s.next() == ']' {
		s.i++
		return out, true
	}
	for n := 1; ; n++ {
		if s.drop = n > s.maxLen; s.drop {
			out = nil
		}
		v, ok := scanInts(s, vec)
		if !ok {
			return nil, false
		}
		if !s.drop {
			out = append(out, v)
		}
		switch s.next() {
		case ',':
			s.i++
		case ']':
			s.i++
			if s.drop {
				s.drop = false
				s.over = max(s.over, n)
			}
			return out, true
		default:
			return nil, false
		}
	}
}

// writeWire sends a compute response as a 200, append-encoded by enc
// into a wire buffer from bufs and sent with its Content-Length.
func writeWire[R any](w http.ResponseWriter, bufs *reqBufs, resp *R, enc func([]byte, *R) []byte) {
	b := enc(bufs.getWire(), resp)
	defer bufs.putWire(b)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
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

// appendBatch appends r's JSON encoding to b: byte for byte what
// json.Encoder.Encode writes for it, trailing newline included.
func appendBatch(b []byte, r *batchResponse) []byte {
	b = append(b, `{"backend":`...)
	b = appendString(b, r.Backend)
	b = append(b, `,"op":`...)
	b = appendString(b, r.Op)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(r.M), 10)
	b = append(b, `,"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendItem(b, &r.Results[i])
		}
		b = append(b, ']')
	}
	b = append(b, `,"failed":`...)
	b = strconv.AppendInt(b, int64(r.Failed), 10)
	return append(b, "}\n"...)
}

// appendItem appends one batch item's JSON object, leaving out the
// fields its struct tags mark omitempty when they are empty.
func appendItem(b []byte, it *batchItem) []byte {
	b = append(b, '{')
	open := len(b)
	if len(it.Multi) > 0 {
		b = appendInts(append(b, `"multi":`...), it.Multi)
	}
	if len(it.Reductions) > 0 {
		b = appendInts(appendKey(b, open, `"reductions":`), it.Reductions)
	}
	if it.Coalesced != 0 {
		b = strconv.AppendInt(appendKey(b, open, `"coalesced":`), int64(it.Coalesced), 10)
	}
	if it.Fallback != "" {
		b = appendString(appendKey(b, open, `"fallback":`), it.Fallback)
	}
	if e := it.Error; e != nil {
		b = append(appendKey(b, open, `"error":`), `{"kind":`...)
		b = appendString(b, e.Kind)
		b = appendString(append(b, `,"message":`...), e.Message)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendKey appends key, after a comma unless it is the first field of
// the object whose fields start at open.
func appendKey(b []byte, open int, key string) []byte {
	if len(b) > open {
		b = append(b, ',')
	}
	return append(b, key...)
}

// intsChunk is how many integers appendInts formats per growth of its
// buffer, and maxIntText the most bytes one of them takes with its
// comma: len("-9223372036854775808,").
const (
	intsChunk  = 512
	maxIntText = 21
)

// digitWords holds the four ASCII digits of every i below 10^4, leading
// zeros included, in the byte lanes of one word, the most significant in
// the lowest: one little-endian store writes them in order. 40 KB.
var digitWords = func() (t [10000]uint32) {
	for i := range t {
		t[i] = uint32(i/1000) | uint32(i/100%10)<<8 | uint32(i/10%10)<<16 | uint32(i%10)<<24 | swarZeros&0xffffffff
	}
	return t
}()

// appendInts appends v as a JSON array, byte for byte as json.Encoder
// writes it. The buffer grows once per chunk of integers, by their
// longest possible text, which leaves room for every 8-byte store. A
// magnitude below 10^8 is written by one store of the eight digits that
// two digitWords lookups give, its leading zeros shifted out; a larger
// one goes to strconv.
func appendInts(b []byte, v []int64) []byte {
	if len(v) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for len(v) > 0 {
		c := v[:min(len(v), intsChunk)]
		v = v[len(c):]
		b = slices.Grow(b, len(c)*maxIntText)
		b = b[:formatInts(b[:cap(b)], len(b), c)]
	}
	b[len(b)-1] = ']'
	return b
}

// formatIntsGo writes each integer of v and a comma into b from index n
// on and returns the index after the last comma; b must have room for
// maxIntText bytes per integer. It is formatInts where no kernel serves,
// and the reference the amd64 kernel is tested against.
func formatIntsGo(b []byte, n int, v []int64) int {
	for _, x := range v {
		sign := x >> 63 // -1 when x is negative, else 0
		u := uint64((x ^ sign) - sign)
		b[n] = '-'
		n -= int(sign)
		if u >= 1e8 {
			n = len(strconv.AppendUint(b[:n], u, 10))
			b[n] = ','
			n++
			continue
		}
		hi := u / 1e4
		w := uint64(digitWords[hi]) | uint64(digitWords[u-hi*1e4])<<32
		lz := min(bits.TrailingZeros64(w^swarZeros)>>3, 7) // leading zeros, keeping one digit
		binary.LittleEndian.PutUint64(b[n:], w>>(8*lz&63))
		n += 8 - lz
		b[n] = ','
		n++
	}
	return n
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
