//go:build amd64 && !purego

package server

import (
	"strings"
	"testing"
)

// TestKernelBounds pins what one call of each kernel may do: the decode
// kernel reads at most decodeBlocks new blocks and returns where the next
// call resumes, and neither kernel writes past the length of the slice
// it is passed, whatever lies in its capacity beyond.
func TestKernelBounds(t *testing.T) {
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
	_, mask, _, k = scanShort64(d[:closing], first-64, 0, first, backing[:3], 0)
	if mask == 0 || k != 3 || backing[2] != 12 || backing[3] != -99 {
		t.Fatalf("short destination: k %d, mask %#x, backing %v", k, mask, backing)
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
}
