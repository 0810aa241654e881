//go:build !amd64 || purego

package server

// Without the amd64 kernels (another GOARCH, or the purego build tag),
// the integer codec runs its SWAR Go loops.

// useKernels is false: there are no kernels to run.
var useKernels = false

func shortInts[T int32 | int64](d []byte, base, closing int, mask uint64, start int, out []T, k int) (int, uint64, int, int) {
	return shortIntsGo(d, base, closing, mask, start, out, k)
}

func formatInts(b []byte, n int, v []int64) int {
	return formatIntsGo(b, n, v)
}
