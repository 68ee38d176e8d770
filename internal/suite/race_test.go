//go:build race

package suite

// raceDetector reports whether this test binary was built with -race.
// The equivalence matrix uses it to drop comparison legs that cannot
// race (sequential, single-worker runs): they only add the detector's
// ~8x slowdown, and the unraced test and fault CI jobs pin them anyway.
const raceDetector = true
