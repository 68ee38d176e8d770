//go:build !race

package data_test

// raceDetector is false in ordinary builds; see race_test.go.
const raceDetector = false
