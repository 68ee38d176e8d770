//go:build race

package engine

// raceDetector reports whether this test binary was built with -race,
// under which sync.Pool drops pooled arenas at random and a byte count per
// run stops being a constant.
const raceDetector = true
