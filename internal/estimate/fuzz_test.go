package estimate

import (
	"fmt"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/wftest"
)

// TestExactnessFuzz runs the complete pipeline over randomized workflows
// and asserts the core soundness property on every one: all SE
// cardinalities derived from one instrumented run match brute force.
func TestExactnessFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short mode")
	}
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, cat, db := wftest.Generate(seed, wftest.Options{})
			method := selector.MethodExact
			if seed%3 == 0 {
				method = selector.MethodGreedy // exercise both solvers
			}
			cssOpt := css.DefaultOptions()
			if seed%4 == 0 {
				cssOpt.UnionDivision = false
			}
			an, res, _, est, run := pipeline(t, g, cat, db, cssOpt, method)
			checkExact(t, an, res, est, db, run)
		})
	}
}
