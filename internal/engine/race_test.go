//go:build race

package engine

// RaceDetector reports whether this test binary was built with -race,
// under which sync.Pool drops pooled arenas at random and a byte count per
// run stops being a constant.
const RaceDetector = true
