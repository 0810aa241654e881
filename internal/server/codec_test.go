package server

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The integer codec runs shortInts and formatInts, which are kernels on
// amd64 (codec_amd64.s) and the Go loops elsewhere or under the purego
// build tag. These tests hold them to shortIntsGo and formatIntsGo step
// for step; without the kernels they compare the Go loops with
// themselves.

// kernelTexts are integer array texts for the decode kernel: an element
// of every width from 1 to 19 digits with either sign, and -0, 00 and a
// lone '-', placed at offsets 0, 7, 8, 56, 63 and 64 of the array's
// first 64-byte block, between short elements that fill two blocks and
// a tail.
var kernelTexts = func() []string {
	var elems []string
	for w := 1; w <= 19; w++ {
		d := "1234567890123456789"[:w]
		elems = append(elems, d, "-"+d)
	}
	elems = append(elems, "-0", "00", "-", "0", "-9999999", "9999999", "10000000")
	pad := func(g int) string { // g ≥ 2 bytes of short elements with their commas
		if g%2 == 1 {
			return "12," + strings.Repeat("1,", (g-3)/2)
		}
		return strings.Repeat("1,", g/2)
	}
	var t []string
	for _, e := range elems {
		for _, off := range []int{0, 7, 8, 56, 63, 64} {
			b := e + "," + pad(160-off-len(e)-2) + "7"
			if off > 0 {
				b = pad(off) + b
			}
			t = append(t, b)
		}
	}
	return t
}()

// checkShortInts runs shortInts and shortIntsGo over the array text that
// starts at start in d and ends at its first ']', as scanInts does: from
// the first block on, and, at each element one stops at, again from the
// comma after it. Both must return the same block, mask, start and index
// at every stop, and leave the same values in an int64 and an int
// destination, and in none when the destination is nil.
func checkShortInts(t *testing.T, d []byte, start int) {
	t.Helper()
	end := bytes.IndexByte(d[start:], ']')
	if end <= 0 {
		return
	}
	closing := start + end
	c := bytes.Count(d[start:closing], []byte{','}) + 1
	check64 := shortIntsPair(t, d, start, closing, make([]int64, c), make([]int64, c))
	checkInt := shortIntsPair(t, d, start, closing, make([]int, c), make([]int, c))
	checkNil := shortIntsPair[int64](t, d, start, closing, nil, nil)
	if check64 != checkInt || check64 != checkNil {
		t.Fatalf("%q: %d, %d and %d elements into int64, int and nil destinations", d, check64, checkInt, checkNil)
	}
}

// shortIntsPair is one destination type of checkShortInts, and returns
// how many elements the loops took.
func shortIntsPair[T int | int64](t *testing.T, d []byte, start, closing int, got, want []T) int {
	t.Helper()
	base, mask, k := start-64, uint64(0), 0
	for {
		gb, gm, gs, gk := shortInts(d, base, closing, mask, start, got, k)
		wb, wm, ws, wk := shortIntsGo(d, base, closing, mask, start, want, k)
		if gb != wb || gm != wm || gs != ws || gk != wk {
			t.Fatalf("%q from %d: shortInts returned (%d, %#x, %d, %d), shortIntsGo (%d, %#x, %d, %d)",
				d, start, gb, gm, gs, gk, wb, wm, ws, wk)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q from %d: shortInts stored %v, shortIntsGo %v", d, start, got, want)
		}
		if gm == 0 {
			return gk
		}
		// Step over the element the loops stopped at, as scanInt would.
		base, mask, start, k = gb, gm&(gm-1), gb+bits.TrailingZeros64(gm)+1, gk+1
	}
}

// checkFormatInts runs formatInts and formatIntsGo on v into buffers
// with room for every integer, both starting at n, and fails t unless
// they write the same bytes and end at the same index.
func checkFormatInts(t *testing.T, v []int64, n int) {
	t.Helper()
	got := make([]byte, n+len(v)*maxIntText)
	want := make([]byte, len(got))
	gn, wn := formatInts(got, n, v), formatIntsGo(want, n, v)
	if gn != wn || !bytes.Equal(got[:gn], want[:wn]) {
		t.Fatalf("formatInts(%v) wrote %q, formatIntsGo %q", v, got[n:gn], want[n:wn])
	}
}

// TestCodecKernels holds the codec's loops to the Go references on the
// decode seeds, each placed after a one-byte and an eleven-byte prefix
// and with its ']' as the last byte of the text or followed by more, and
// on encode runs of every width with long values around chunk edges.
func TestCodecKernels(t *testing.T) {
	for _, text := range slices.Concat(intTexts, blockTexts, kernelTexts) {
		for _, prefix := range []string{"[", `{"values":[`} {
			for _, suffix := range []string{"]", "]}"} {
				checkShortInts(t, []byte(prefix+text+suffix), len(prefix))
			}
		}
	}
	// A text of many blocks, longer than one call of the kernel reads.
	checkShortInts(t, []byte("["+strings.Repeat("-1234567,7,", 8000)+"1]"), 1)

	var v []int64
	for w := 1; w <= 19; w++ {
		x, _ := strconv.ParseInt("1234567890123456789"[:w], 10, 64)
		v = append(v, x, -x)
	}
	v = append(v, 0, 99999999, -99999999, 1e8, -1e8, math.MaxInt64, math.MinInt64)
	for n := range 3 {
		checkFormatInts(t, v, n)
	}
	// Runs of long values that straddle the chunk edge, and chunks that
	// end and start on a long value.
	for _, at := range []int{0, 1, intsChunk - 3, intsChunk - 1, intsChunk, 2*intsChunk - 1} {
		for _, run := range []int{1, 2, 7, intsChunk + 2} {
			v := make([]int64, 2*intsChunk+5)
			for i := range v {
				v[i] = int64(i%7) * 1234567
				if i >= at && i < at+run {
					v[i] = -1e8 - int64(i)
				}
			}
			checkFormatInts(t, v, 1)
			want := []byte{'['}
			for i, x := range v {
				if i > 0 {
					want = append(want, ',')
				}
				want = strconv.AppendInt(want, x, 10)
			}
			if got := appendInts(nil, v); !bytes.Equal(got, append(want, ']')) {
				t.Fatalf("appendInts with a run of %d long values at %d:\n got %s\nwant %s]", run, at, got, want)
			}
		}
	}
}
