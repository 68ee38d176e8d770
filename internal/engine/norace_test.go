//go:build !race

package engine

// RaceDetector is false in ordinary builds; see race_test.go.
const RaceDetector = false
