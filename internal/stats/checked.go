package stats

import (
	"fmt"
	"math"
)

// Checked int64 arithmetic for cardinality and frequency math. Exact
// histograms multiply per-bucket frequencies (rules J1–J3) and adversarial
// inputs can push those products past int64; silently wrapping would
// surface as a negative cardinality deep inside the estimator, so every
// product goes through these helpers and overflow is reported as a
// descriptive error at the point it happens.

// errOverflow tags arithmetic overflow errors so callers can detect them
// with errors.Is.
var errOverflow = fmt.Errorf("int64 overflow")

// mulInt64 returns a*b, or an error when the product does not fit in int64.
func mulInt64(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	// MinInt64 * -1 wraps back to MinInt64 and would pass the division
	// check below (Go defines MinInt64 / -1 == MinInt64), so reject it
	// explicitly.
	if (a == math.MinInt64 && b == -1) || (a == -1 && b == math.MinInt64) {
		return 0, fmt.Errorf("%w: %d * %d", errOverflow, a, b)
	}
	p := a * b
	if p/b != a {
		return 0, fmt.Errorf("%w: %d * %d", errOverflow, a, b)
	}
	return p, nil
}

// addInt64 returns a+b, or an error when the sum does not fit in int64.
func addInt64(a, b int64) (int64, error) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, fmt.Errorf("%w: %d + %d", errOverflow, a, b)
	}
	return s, nil
}
