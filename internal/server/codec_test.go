package server

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"os"
	"regexp"
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

// groupTexts are integer array texts for the decode kernel's groups of
// four: an element at the edge of the short shape (00, a lone '-', eight
// digits and eight digits with a sign, which it must not take; -0, 0, a
// '-' and seven digits and seven digits, which it must) at each lane of
// a group (groups start after the array's first element) and in a group
// that straddles a 64-byte block edge, and arrays of 1 to 13 elements,
// which leave 1 to 3 after their last group.
var groupTexts = func() []string {
	var t []string
	short := []string{"12", "-3", "456", "7", "-89", "0", "-1000", "1000", "5", "-6"}
	for _, e := range []string{"-0", "00", "-", "12345678", "-12345678", "-1234567", "1234567", "0"} {
		for pos := range 9 {
			elems := slices.Clone(short)
			elems[pos] = e
			t = append(t, strings.Join(elems, ","))
		}
		for pad := 40; pad < 80; pad += 3 { // e from byte 40 to 79 of the first block on
			b := strings.Repeat("1,", pad/2) + e + "," + strings.Repeat("23,", 12) + "4"
			if pad%2 == 1 {
				b = "9" + b
			}
			t = append(t, b)
		}
	}
	for m := 1; m <= 13; m++ {
		t = append(t, strings.Repeat("12,", m-1)+"3", strings.Repeat("-1234567,", m-1)+"-7654321")
	}
	return t
}()

// checkShortInts runs shortInts and shortIntsGo over the array text that
// starts at start in d and ends at its first ']', as scanInts does: from
// the first block on, and, at each element one stops at, again from the
// comma after it. Both must return the same block, mask, start and index
// at every stop, and leave the same values in an int64 and an int32
// destination (the labels' 4-byte store), and in none when the
// destination is nil.
func checkShortInts(t *testing.T, d []byte, start int) {
	t.Helper()
	end := bytes.IndexByte(d[start:], ']')
	if end <= 0 {
		return
	}
	closing := start + end
	c := bytes.Count(d[start:closing], []byte{','}) + 1
	got64, got32 := make([]int64, c), make([]int32, c)
	check64 := shortIntsPair(t, d, start, closing, got64, make([]int64, c))
	check32 := shortIntsPair(t, d, start, closing, got32, make([]int32, c))
	checkNil := shortIntsPair[int64](t, d, start, closing, nil, nil)
	if check64 != check32 || check64 != checkNil {
		t.Fatalf("%q: %d, %d and %d elements into int64, int32 and nil destinations", d, check64, check32, checkNil)
	}
	for i, v := range got32 {
		if int64(v) != got64[i] {
			t.Fatalf("%q: element %d is %d in an int32 destination, %d in an int64 one", d, i, v, got64[i])
		}
	}
}

// shortIntsPair is one destination type of checkShortInts, and returns
// how many elements the loops took.
func shortIntsPair[T int32 | int64](t *testing.T, d []byte, start, closing int, got, want []T) int {
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
	for _, text := range slices.Concat(intTexts, blockTexts, kernelTexts, groupTexts) {
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
	// The edges of the encode kernel's range at each lane of its first two
	// iterations of eight, among short values.
	for _, x := range []int64{math.MinInt64, math.MaxInt64, 99999999, -99999999, 1e8, -1e8, 999999, -999999, 1e6, -1e6} {
		for lane := range 16 {
			v := []int64{5, -67, 890, -1, 23456, -7, 8, 9, 10, -11, 12, 13, -1234, 56789, 0, -42, 7, 77, -777, 7777}
			v[lane] = x
			for n := range 3 {
				checkFormatInts(t, v, n)
			}
		}
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

// TestKernelVEXOnly holds codec_amd64.s to the rule the kernels' speed
// rests on, which no test of their results can see: every instruction
// that names an X or Y register is VEX-encoded (its mnemonic starts with
// V), and each TEXT body that names one runs VZEROUPPER before every
// RET, in the RET's own run of instructions (from the last label or
// jump) and after the last instruction there that names a vector
// register. A body that names none, as the CPUID and XGETBV helper, runs
// no VZEROUPPER, which faults on a CPU without AVX.
func TestKernelVEXOnly(t *testing.T) {
	src, err := os.ReadFile("codec_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if errs := vexErrors(string(src)); len(errs) > 0 {
		t.Fatalf("codec_amd64.s:\n%s", strings.Join(errs, "\n"))
	}
}

// vexErrors returns a line for each break of TestKernelVEXOnly's rule in
// the assembly text src.
func vexErrors(src string) []string {
	vecReg := regexp.MustCompile(`\b[XY](1[0-5]|[0-9])\b`)
	type stmt struct {
		line     int
		text, op string
		vec      bool // names a vector register
	}
	var bodies [][]stmt
	for i, line := range strings.Split(src, "\n") {
		line, _, _ = strings.Cut(line, "//")
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		for _, text := range strings.Split(line, ";") {
			text = strings.TrimSpace(text)
			op := strings.Fields(text)[0]
			if op == "TEXT" {
				bodies = append(bodies, nil)
			} else if len(bodies) > 0 {
				bodies[len(bodies)-1] = append(bodies[len(bodies)-1], stmt{i + 1, text, op, vecReg.MatchString(text)})
			}
		}
	}
	var errs []string
	for _, body := range bodies {
		vec := slices.ContainsFunc(body, func(s stmt) bool { return s.vec })
		for i, s := range body {
			switch {
			case s.vec && s.op[0] != 'V':
				errs = append(errs, fmt.Sprintf("line %d: %q names a vector register without VEX encoding", s.line, s.text))
			case s.op == "VZEROUPPER" && !vec:
				errs = append(errs, fmt.Sprintf("line %d: VZEROUPPER in a body that names no vector register", s.line))
			case s.op == "RET" && vec:
				// Walk back through the RET's run, which starts after the
				// last label or jump.
				j := i - 1
				for j >= 0 && body[j].op != "VZEROUPPER" && !body[j].vec && !strings.HasSuffix(body[j].op, ":") && body[j].op[0] != 'J' {
					j--
				}
				if j < 0 || body[j].op != "VZEROUPPER" {
					errs = append(errs, fmt.Sprintf("line %d: RET without VZEROUPPER after the last vector instruction before it", s.line))
				}
			}
		}
	}
	return errs
}
