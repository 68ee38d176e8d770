//go:build race

package data_test

// raceDetector reports whether this test binary was built with -race, under
// which allocation counts stop being constants.
const raceDetector = true
