package experiments

import (
	"context"
	"fmt"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/payg"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/wftest"
)

// E2ERow is one end-to-end soundness measurement: after a single
// instrumented run of the initial plan, how many SE cardinalities does the
// estimator reproduce exactly, and how much does the exact-costed optimizer
// improve the plan.
type E2ERow struct {
	ID  int
	SEs int
	// ExactSEs counts SEs whose derived cardinality equals the brute-force
	// ground truth (the paper's soundness claim is ExactSEs == SEs).
	ExactSEs int
	// InitCost/OptCost are the C_out costs of the designed and optimized
	// plans; Speedup is their ratio.
	InitCost, OptCost, Speedup float64
	// InitRows/OptRows are the engine work metrics of executing both.
	InitRows, OptRows int64
	// MaxQ is the worst q-error across derivable SE targets of the
	// instrumented run's estimate feedback (1 = every estimate exact).
	MaxQ float64
}

// e2eWorkflows are suite entries small enough to execute and verify
// exhaustively while covering joins, chains, boundaries, reject links,
// shared keys and the union–division showcase.
var e2eWorkflows = []int{3, 5, 7, 11, 15, 23}

// EndToEnd runs the full optimization cycle on materialized data for a
// representative subset of the suite and verifies estimator exactness
// against brute-force ground truth.
func EndToEnd(scale float64) ([]*E2ERow, error) {
	var out []*E2ERow
	for _, id := range e2eWorkflows {
		row, err := EndToEndWorkflow(id, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// EndToEndWorkflow runs the cycle and the exactness verification for a
// single suite workflow; an id outside the suite returns
// *suite.UnknownWorkflowError.
func EndToEndWorkflow(id int, scale float64) (*E2ERow, error) {
	w, err := suite.Get(id)
	if err != nil {
		return nil, err
	}
	db := w.Data(scale)
	cfg := core.DefaultConfig()
	cfg.Workers = Workers
	cfg.CollectMetrics = true
	cy, err := core.Run(w.Graph, w.Catalog, db, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	row := &E2ERow{ID: id}
	for bi, sp := range cy.CSS.Spaces {
		blk := cy.Analysis.Blocks[bi]
		for _, se := range sp.SEs {
			row.SEs++
			truth, err := wftest.SECard(cy.Analysis, db, cy.Observed.BlockOut, bi, se)
			if err != nil {
				return nil, fmt.Errorf("%s: ground truth for %s: %w", w.Name, se.Label(blk), err)
			}
			got, err := cy.Estimator.CardOf(bi, se)
			if err != nil {
				return nil, fmt.Errorf("%s: estimate for %s: %w", w.Name, se.Label(blk), err)
			}
			if got == truth {
				row.ExactSEs++
			}
		}
	}
	row.InitCost = cy.Plans.TotalInitialCost
	row.OptCost = cy.Plans.TotalCost
	row.Speedup = cy.Plans.Improvement()
	row.InitRows = cy.Observed.Rows
	if cy.Feedback != nil {
		row.MaxQ = cy.Feedback.MaxQ
	}
	opt, err := cy.RunOptimized()
	if err != nil {
		return nil, fmt.Errorf("%s: optimized run: %w", w.Name, err)
	}
	row.OptRows = opt.Rows
	return row, nil
}

// BudgetRow is one point of the Section 6.1 sweep.
type BudgetRow struct {
	Budget   int64
	Runs     int
	TotalMem int64
}

// BudgetSweep plans multi-run observation for the given workflow under a
// range of per-run memory budgets: double the unconstrained optimum (one
// run suffices), half of it, and two hard limits that force the trivial-CSS
// mix across several re-ordered executions.
func BudgetSweep(id int) ([]*BudgetRow, error) {
	w := suite.MustGet(id)
	an, err := w.Analyze()
	if err != nil {
		return nil, err
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		return nil, err
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	u, err := selector.NewUniverse(res, coster)
	if err != nil {
		return nil, err
	}
	opt, err := selector.SelectUniverse(u, selectOptions())
	if err != nil {
		return nil, err
	}
	budgets := []int64{2 * opt.Memory, opt.Memory / 2, 64, 4}
	var out []*BudgetRow
	for _, budget := range budgets {
		if budget < 4 {
			budget = 4
		}
		plan, err := selector.PlanWithBudget(u, budget)
		if err != nil {
			// Budget too small for even one requirement: report and stop.
			out = append(out, &BudgetRow{Budget: budget, Runs: -1})
			break
		}
		var mem int64
		for _, m := range plan.Memory {
			mem += m
		}
		out = append(out, &BudgetRow{Budget: budget, Runs: plan.NumRuns(), TotalMem: mem})
	}
	return out, nil
}

// FreeRow is one row of the free-source-statistics ablation.
type FreeRow struct {
	ID      int
	Mem     int64
	MemFree int64
}

// FreeSourceAblation compares the optimal observation memory with and
// without Section 6.2's free source statistics (every base relation assumed
// to live in an RDBMS that already publishes statistics).
func FreeSourceAblation() ([]*FreeRow, error) {
	var out []*FreeRow
	for _, id := range []int{3, 5, 11, 16, 23} {
		w := suite.MustGet(id)
		an, err := w.Analyze()
		if err != nil {
			return nil, err
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			return nil, err
		}
		base := costmodel.NewMemoryCoster(res, an.Cat)
		sel, err := selector.Select(res, base, selectOptions())
		if err != nil {
			return nil, err
		}
		// Every second relation lives in a relational source that publishes
		// statistics; the rest are flat-file feeds (the paper's worst case).
		for i, rel := range an.Cat.Relations {
			rel.HasSourceStats = i%2 == 0
		}
		free := costmodel.NewMemoryCoster(res, an.Cat)
		free.FreeSourceStats = true
		selFree, err := selector.Select(res, free, selectOptions())
		if err != nil {
			return nil, err
		}
		// Memory still counts the paid statistics only: recompute from the
		// free selection ignoring zero-cost stats.
		var memFree int64
		for _, s := range selFree.Observe {
			c, err := free.Cost(s)
			if err != nil {
				return nil, err
			}
			if c > 0 {
				m, err := free.Memory(s)
				if err != nil {
					return nil, err
				}
				memFree += m
			}
		}
		out = append(out, &FreeRow{ID: id, Mem: sel.Memory, MemFree: memFree})
	}
	return out, nil
}

// WorkRow compares the engine work of the pay-as-you-go baseline's full
// plan sequence against the framework's single instrumented run.
type WorkRow struct {
	ID int
	// Runs is the baseline's execution count.
	Runs int
	// BaselineRows and FrameworkRows are the summed engine work metrics.
	BaselineRows, FrameworkRows int64
	// Multiplier is their ratio.
	Multiplier float64
}

// WorkComparison executes both approaches on materialized data.
func WorkComparison(ids []int, scale float64) ([]*WorkRow, error) {
	var out []*WorkRow
	for _, id := range ids {
		w := suite.MustGet(id)
		an, err := w.Analyze()
		if err != nil {
			return nil, err
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			return nil, err
		}
		db := w.Data(scale)
		eng := engine.New(an, db, nil)
		eng.Workers = Workers

		// Framework: one instrumented run with the optimal statistics.
		coster := costmodel.NewMemoryCoster(res, an.Cat)
		sel, err := selector.Select(res, coster, selectOptions())
		if err != nil {
			return nil, err
		}
		fw, err := eng.RunPlans(nil, res, sel.Observe)
		if err != nil {
			return nil, err
		}

		// Baseline: the whole re-ordered plan sequence.
		rep := payg.Evaluate(res)
		exec, err := payg.ExecuteCtx(context.Background(), eng, res, rep)
		if err != nil {
			return nil, err
		}
		row := &WorkRow{
			ID:            id,
			Runs:          exec.Runs,
			BaselineRows:  exec.RowsTotal,
			FrameworkRows: fw.Rows,
		}
		if fw.Rows > 0 {
			row.Multiplier = float64(exec.RowsTotal) / float64(fw.Rows)
		}
		out = append(out, row)
	}
	return out, nil
}
