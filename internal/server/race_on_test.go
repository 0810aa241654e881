//go:build race

package server

// See race_off_test.go.
const raceDetectorEnabled = true
