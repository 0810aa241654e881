//go:build amd64 && !purego

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// TestKernelBounds pins what one call of each kernel may do: the decode
// kernel enters at most decodeBlocks new blocks and returns where the
// next call resumes, and neither kernel writes past the length of the
// slice it is passed, whatever lies in its capacity beyond, whether it
// stores a group of numbers at a time or one.
func TestKernelBounds(t *testing.T) {
	if !useKernels {
		t.Skip("this CPU lacks AVX2, BMI1 or BMI2, or its OS does not save the YMM registers: the codec runs the Go loops")
	}
	const first = len(`{"values":[`)
	d := []byte(`{"values":[` + strings.Repeat("12,", 1<<12) + "1]")
	closing := len(d) - 1
	out := make([]int64, 1<<12+1)
	base, mask, start, k := scanShort64(d[:closing], first-64, 0, first, out, 0)
	if mask != 0 || base != first+(decodeBlocks-1)*64 {
		t.Fatalf("one call: base %d, mask %#x; want block %d ending at %d, mask 0", base, mask, decodeBlocks, first+decodeBlocks*64)
	}
	if start > base+64 || start <= base+64-3 || k != (start-first)/3 || out[k-1] != 12 || out[k] != 0 {
		t.Fatalf("one call: start %d, k %d after the block ending at %d", start, k, base+64)
	}

	// A destination shorter than the elements: the kernel stores up to its
	// length and stops at the element it cannot take.
	backing := make([]int64, 8)
	for i := range backing {
		backing[i] = -99
	}
	for _, n := range []int{3, 5, 6, 7} {
		for i := range backing {
			backing[i] = -99
		}
		_, mask, _, k = scanShort64(d[:closing], first-64, 0, first, backing[:n], 0)
		if mask == 0 || k != n || backing[n-1] != 12 || backing[n] != -99 {
			t.Fatalf("destination of %d: k %d, mask %#x, backing %v", n, k, mask, backing)
		}
	}

	// An encode buffer with room for two integers: the kernel formats
	// them and stops, leaving the capacity beyond len(b) untouched.
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = '#'
	}
	n, i := formatShort(buf[:22], 2, []int64{-1234567, 7654321, 1, 2})
	if got := string(buf[2:n]); i != 2 || got != "-1234567,7654321," {
		t.Fatalf("formatShort into 22 bytes: %d integers, %q", i, got)
	}
	if strings.Trim(string(buf[22:]), "#") != "" {
		t.Fatalf("formatShort wrote past len(b): %q", buf[22:])
	}
	if n, i := formatShort(buf[:9], 0, []int64{1}); n != 0 || i != 0 {
		t.Fatalf("formatShort into 9 bytes: %d integers to %d, want none", i, n)
	}

	// Buffers around the room eight 16-byte stores need: whatever the
	// length, the kernel writes inside it and what it writes is what the
	// Go loop writes.
	v := []int64{-12345678, 87654321, -1, 22, -1234567, 7654321, 0, -99999999, 5, -60, 700, -8000, 90000, -100000, 1000000, -3}
	want := make([]byte, len(v)*maxIntText)
	wn := formatIntsGo(want, 0, v)
	for size := 0; size <= wn+16; size++ {
		buf := make([]byte, size+64)
		for i := range buf {
			buf[i] = '#'
		}
		n, i := formatShort(buf[:size], 0, v)
		if string(buf[:n]) != string(want[:n]) || n != len(formatIntsText(v[:i])) {
			t.Fatalf("formatShort into %d bytes: %d integers, %q", size, i, buf[:n])
		}
		if strings.Trim(string(buf[size:]), "#") != "" {
			t.Fatalf("formatShort into %d bytes wrote past len(b): %q", size, buf[size:])
		}
		if size >= n+10 && i < len(v) {
			t.Fatalf("formatShort into %d bytes stopped at integer %d with room for it", size, i)
		}
	}
}

// formatIntsText is what formatIntsGo writes for v.
func formatIntsText(v []int64) []byte {
	b := make([]byte, len(v)*maxIntText)
	return b[:formatIntsGo(b, 0, v)]
}

// TestKernelsOff posts the same bodies to the four compute routes of
// two servers, one on the codec's kernels and one with them switched off
// as on a CPU without AVX2, and requires the same status and response
// bytes from both.
func TestKernelsOff(t *testing.T) {
	if !useKernels {
		t.Skip("the codec already runs the Go loops on this CPU")
	}
	var bodies [][]byte
	for _, digits := range []int{1, 4, 7, 8, 19} {
		r := computeRequest{Op: "max", M: 16, Labels: make([]int, 1000), Values: digitsValues(1000, digits)}
		for i := range r.Labels {
			r.Labels[i] = i % 16
		}
		r.Batch = [][]int64{r.Values, digitsValues(1000, 20-digits)}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b, wireBody(t, 1000+digits, 64))
	}
	for _, seed := range slices.Concat(decodeSeeds, edgeBodies()) {
		bodies = append(bodies, []byte(seed))
	}
	answers := func(kernels bool) []string {
		defer func(on bool) { useKernels = on }(useKernels)
		useKernels = kernels
		s := New(Options{})
		defer s.Close()
		var got []string
		for _, body := range bodies {
			for _, rt := range computeRoutes {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(body)))
				got = append(got, fmt.Sprintf("%s %d %s", rt.path, rec.Code, rec.Body.Bytes()))
			}
		}
		return got
	}
	on, off := answers(true), answers(false)
	if ok := slices.IndexFunc(on, func(a string) bool { return strings.Contains(a, " 200 {") }); ok < 0 {
		t.Fatal("no body got a 200")
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("body %q:\n kernels %.300s\n Go loops %.300s", bodies[i/len(computeRoutes)], on[i], off[i])
		}
	}
}
