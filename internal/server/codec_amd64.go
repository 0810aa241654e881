//go:build amd64 && !purego

package server

import "unsafe"

// On an amd64 CPU with AVX2, BMI1 and BMI2, whose OS saves the YMM
// registers, the per-number loops of the integer codec run as two
// kernels (codec_amd64.s) that do what shortIntsGo and formatIntsGo do,
// number for number, four numbers per vector step. Any other CPU runs
// the Go loops, which are also the purego build's path and the
// reference the tests hold the kernels to.
//
// A kernel cannot be preempted, so each call does bounded work: the
// decoder enters at most decodeBlocks new blocks of 64 bytes, the
// encoder formats at most one chunk of appendInts, intsChunk integers.
// The Go loops around the calls are where the scheduler can stop the
// goroutine.

// useKernels reports whether the codec runs the kernels. It is set once
// from the CPU at package init, and only tests change it afterwards.
var useKernels = kernelsSupported()

// kernelsSupported reports whether this CPU and OS run the kernels:
// CPUID's AVX and OSXSAVE (leaf 1, ECX bits 28 and 27), AVX2, BMI1 and
// BMI2 (leaf 7, EBX bits 5, 3 and 8; the kernels use TZCNT, BLSR, SHLX
// and SHRX), and XCR0's SSE and AVX state bits (1 and 2), which say that
// the OS saves the YMM registers.
func kernelsSupported() bool {
	const (
		leaf1  = 1<<28 | 1<<27
		leaf7  = 1<<5 | 1<<3 | 1<<8
		xmmYmm = 1<<1 | 1<<2
	)
	ecx1, ebx7, xcr0 := cpuFeatures()
	return ecx1&leaf1 == leaf1 && ebx7&leaf7 == leaf7 && xcr0&xmmYmm == xmmYmm
}

// cpuFeatures returns CPUID leaf 1's ECX, leaf 7's EBX and XCR0's low
// word, or 0 for a leaf the CPU lacks or for XCR0 without OSXSAVE.
func cpuFeatures() (ecx1, ebx7, xcr0 uint32)

// decodeBlocks caps the 64-byte blocks one decode kernel call enters:
// 4 KiB of text, about as many short integers as an encode chunk.
const decodeBlocks = 64

// scanShort is shortIntsGo for a destination of n integers of size
// bytes at out, 8 for int64 and 4 for int32, with closing the length of
// d, except that it returns after entering decodeBlocks blocks: then
// the mask is zero and base is the last block it finished, whose end is
// not past closing. A nil out only counts. scanShort64 and scanShort32
// are its typed forms.
//
//go:noescape
func scanShort(d []byte, base int, mask uint64, start int, out unsafe.Pointer, n, k, size int) (nbase int, nmask uint64, nstart, nk int)

func scanShort64(d []byte, base int, mask uint64, start int, out []int64, k int) (int, uint64, int, int) {
	return scanShort(d, base, mask, start, unsafe.Pointer(unsafe.SliceData(out)), len(out), k, 8)
}

func scanShort32(d []byte, base int, mask uint64, start int, out []int32, k int) (int, uint64, int, int) {
	return scanShort(d, base, mask, start, unsafe.Pointer(unsafe.SliceData(out)), len(out), k, 4)
}

// formatShort is formatIntsGo for the integers of v below 10^8 in
// magnitude: it formats v from its first integer up to the first of
// 10^8 or more, or up to the first that could write past len(b), and
// returns the index after the last comma and how many it formatted.
//
//go:noescape
func formatShort(b []byte, n int, v []int64) (nn, i int)

// shortInts is shortIntsGo, on the decode kernel where the CPU runs it.
// The kernel reads d only below closing.
func shortInts[T int32 | int64](d []byte, base, closing int, mask uint64, start int, out []T, k int) (int, uint64, int, int) {
	if !useKernels {
		return shortIntsGo(d, base, closing, mask, start, out, k)
	}
	d = d[:closing]
	for {
		switch o := any(out).(type) {
		case []int64:
			base, mask, start, k = scanShort64(d, base, mask, start, o, k)
		case []int32:
			base, mask, start, k = scanShort32(d, base, mask, start, o, k)
		}
		if mask != 0 || base+64 > closing {
			return base, mask, start, k
		}
	}
}

// formatInts is formatIntsGo, on the encode kernel where the CPU runs
// it.
func formatInts(b []byte, n int, v []int64) int {
	if !useKernels {
		return formatIntsGo(b, n, v)
	}
	for {
		var i int
		n, i = formatShort(b, n, v)
		if v = v[i:]; len(v) == 0 {
			return n
		}
		// v[0] stopped the kernel. The Go loop formats it and the run of
		// magnitudes of 10^8 or more after it, so that a run of long
		// values does not enter the kernel once per value.
		j := 1
		for j < len(v) && uint64(v[j]+1e8-1) >= 2e8-1 { // |v[j]| ≥ 10^8, one compare whatever the sign
			j++
		}
		n = formatIntsGo(b, n, v[:j])
		v = v[j:]
	}
}
