//go:build !race

package engine

// raceDetector is false in ordinary builds; see race_test.go.
const raceDetector = false
