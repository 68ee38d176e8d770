package core

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/suite"
)

// TestEstimateAllocs pins, without a clock, what re-optimizing from an
// observed store allocates: a fresh estimator plus OptimizeOpts over the
// cycle's candidate sets and statistics — every derived cardinality and
// the histogram algebra under it. The bounds are a tenth of what a
// histogram keyed by a string per bucket allocated (wf12 36,135, wf20
// 119,034 at scale 0.002); flat buckets measure 1,332 and 3,114.
func TestEstimateAllocs(t *testing.T) {
	for _, c := range []struct {
		wf  int
		max float64
	}{{12, 3_600}, {20, 11_900}} {
		w := suite.MustGet(c.wf)
		cfg := DefaultConfig()
		cy, err := Run(w.Graph, w.Catalog, w.Data(0.002), cfg)
		if err != nil {
			t.Fatalf("wf%02d: Run: %v", c.wf, err)
		}
		got := testing.AllocsPerRun(5, func() {
			est := estimate.New(cy.CSS, cy.Observed.Observed)
			if _, err := optimizer.OptimizeOpts(cy.CSS, est, cfg.CostModel, optimizer.Options{}); err != nil {
				t.Fatalf("wf%02d: OptimizeOpts: %v", c.wf, err)
			}
		})
		t.Logf("wf%02d: %.0f allocations to estimate and optimize (bound %.0f)", c.wf, got, c.max)
		if got > c.max {
			t.Errorf("wf%02d: %.0f allocations to estimate and optimize, over the bound %.0f", c.wf, got, c.max)
		}
	}
}
