package core

import (
	"fmt"
	"io"

	"github.com/essential-stats/etlopt/internal/stats"
)

// Report writes a human-readable markdown summary of the cycle: the blocks
// and their plan spaces, the chosen statistics with costs, the observed
// values, per-block plans with costs, and the derivation of every SE
// cardinality. It is the artifact an operator reviews after a cycle.
func (cy *Cycle) Report(w io.Writer) error {
	p := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	p("# Optimization cycle — %s\n\n", cy.Analysis.Graph.Name)
	p("- blocks: %d\n- sub-expressions: %d\n- candidate statistics sets: %d\n",
		len(cy.Analysis.Blocks), cy.CSS.NumSEs(), cy.CSS.NumCSS())
	p("- selection: %s (optimal=%v), memory %d units\n", cy.Selection.Method, cy.Selection.Optimal, cy.Selection.Memory)
	p("- phase timings: analyze %v, CSS %v, select %v, observe %v, optimize %v\n\n",
		cy.Timings.Analyze.Round(100_000), cy.Timings.GenerateCSS.Round(100_000),
		cy.Timings.Select.Round(100_000), cy.Timings.ObserveRun.Round(100_000),
		cy.Timings.Optimize.Round(100_000))

	p("## Statistics observed\n\n")
	for _, s := range cy.Selection.Observe {
		blk := cy.Analysis.Blocks[s.Target.Block]
		note := ""
		if cy.CSS.RejectLinked(s) {
			note = " *(requires added reject link)*"
		}
		p("- block %d: `%s`%s\n", s.Target.Block, s.Label(blk), note)
	}
	p("\n## Observed values\n\n```\n")
	for _, v := range cy.Observed.Observed.Values() {
		blk := cy.Analysis.Blocks[v.Stat.Target.Block]
		if v.Hist != nil {
			p("%s: %d buckets, total %d\n", v.Stat.Label(blk), v.Hist.Buckets(), v.Hist.Total())
		} else {
			p("%s = %d\n", v.Stat.Label(blk), v.Scalar)
		}
	}
	p("```\n\n## Plans\n\n")
	for bi, blk := range cy.Analysis.Blocks {
		plan, ok := cy.Plans.Plans[bi]
		if !ok {
			continue
		}
		if plan.Tree == nil {
			p("- block %d: join-free\n", bi)
			continue
		}
		p("- block %d designed `%s` (cost %.0f) → optimized `%s` (cost %.0f)\n",
			bi, blk.Initial.Render(blk), plan.InitialCost, plan.Tree.Render(blk), plan.Cost)
	}
	p("\noverall improvement: %.2fx\n\n## Derivations\n\n```\n", cy.Plans.Improvement())
	for bi, sp := range cy.CSS.Spaces {
		blk := cy.Analysis.Blocks[bi]
		for _, se := range sp.SEs {
			ex, err := cy.Estimator.Explain(stats.NewCard(stats.BlockSE(bi, se)))
			if err != nil {
				return err
			}
			p("%s", ex.Render(blk))
		}
	}
	p("```\n")
	return nil
}
