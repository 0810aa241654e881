//go:build !race

package server

// raceDetectorEnabled reports whether this test binary was built with
// -race. The allocation pins that rely on the vector pool read it: under
// the race detector sync.Pool drops a random share of what it is given,
// so a warm request makes vectors anew now and then.
const raceDetectorEnabled = false
