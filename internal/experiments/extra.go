package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/payg"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/wftest"
)

// workflowRow is one suite workflow's measurements, shared by Figures 9–12
// and the greedy ablation; the Plain fields are without union–division.
type workflowRow struct {
	ID                           int
	SEs, CSSPlain, CSSUnionDiv   int           // Figure 9
	GenPlain, GenUD, SelectTime  time.Duration // Figure 10
	MemPlain, MemUD              int64         // Figure 11, memory units
	OptimalPlain, OptimalUD      bool          // whether the solver proved optimality
	FormulaLB, SemanticLB, Found int           // Figure 12
	GreedyMem                    int64         // the greedy selection's memory, with union–division
}

// runWorkflow produces the full measurement row for one suite workflow.
func runWorkflow(w *suite.Workflow) (*workflowRow, error) {
	row := &workflowRow{ID: w.ID}
	plainPlan := core.NewPlan(w.Graph, w.Catalog, css.Options{})
	udPlan := core.NewPlan(w.Graph, w.Catalog, css.DefaultOptions())
	plain, err := plainPlan.CSS()
	if err != nil {
		return nil, err
	}
	ud, err := udPlan.CSS()
	if err != nil {
		return nil, err
	}
	row.SEs, row.CSSPlain, row.CSSUnionDiv = ud.NumSEs(), plain.NumCSS(), ud.NumCSS()

	selPlain, err := plainPlan.Selection(selector.MethodExact)
	if err != nil {
		return nil, err
	}
	row.MemPlain, row.OptimalPlain = selPlain.Memory, selPlain.Optimal
	// With union–division: the Figure 10 selection, and the greedy ablation
	// on the same universe.
	selUD, err := udPlan.Selection(selector.MethodExact)
	if err != nil {
		return nil, err
	}
	row.MemUD, row.OptimalUD = selUD.Memory, selUD.Optimal
	gr, err := udPlan.Selection(selector.MethodGreedy)
	if err != nil {
		return nil, err
	}
	row.GreedyMem = gr.Memory
	row.GenPlain = plainPlan.Timings(selector.MethodExact).GenerateCSS
	udTime := udPlan.Timings(selector.MethodExact)
	row.GenUD, row.SelectTime = udTime.GenerateCSS, udTime.Select

	rep := payg.Evaluate(ud) // the Figure 12 baseline
	row.FormulaLB, row.SemanticLB, row.Found = rep.FormulaLB, rep.SemanticLB, rep.Found
	return row, nil
}

// dataCharacteristics generates the suite's paper-sized source relations
// and summarizes them the way the paper's Section 7 table does.
func dataCharacteristics() data.Characteristics {
	var tables []*data.Table
	for _, w := range suite.All() {
		for _, tbl := range w.Data(1) {
			tables = append(tables, tbl)
		}
	}
	return data.Characterize(tables)
}

// e2eRow is one end-to-end soundness measurement: after a single
// instrumented run of the initial plan, how many SE cardinalities does the
// estimator reproduce exactly, and how much does the exact-costed optimizer
// improve the plan.
// ExactSEs counts the SEs whose derived cardinality equals the brute-force
// ground truth (the paper's soundness claim is ExactSEs == SEs); the costs
// are C_out, the rows the engine work metric, and MaxQ the worst q-error of
// the run's estimate feedback (1 = every estimate exact).
type e2eRow struct {
	ID, SEs, ExactSEs          int
	InitCost, OptCost, Speedup float64
	InitRows, OptRows          int64
	MaxQ                       float64
}

// e2eWorkflows are suite entries small enough to execute and verify
// exhaustively while covering joins, chains, boundaries, reject links,
// shared keys and the union–division showcase.
var e2eWorkflows = []int{3, 5, 7, 11, 15, 23}

// endToEnd runs the full optimization cycle on materialized data for each
// suite workflow in ids and verifies estimator exactness against
// brute-force ground truth; an id outside the suite returns
// *suite.UnknownWorkflowError.
func endToEnd(ids []int, scale float64) ([]*e2eRow, error) {
	var out []*e2eRow
	for _, id := range ids {
		w, err := suite.Get(id)
		if err != nil {
			return nil, err
		}
		db := w.Data(scale)
		cfg := core.DefaultConfig()
		cfg.Workers = runtime.GOMAXPROCS(0)
		cfg.CollectMetrics = true
		cy, err := core.Run(w.Graph, w.Catalog, db, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		row := &e2eRow{ID: id}
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
		out = append(out, row)
	}
	return out, nil
}

// budgetRow is one point of the Section 6.1 sweep.
type budgetRow struct {
	Budget, TotalMem int64
	Runs             int
}

// budgetSweep plans multi-run observation for the given workflow under a
// range of per-run memory budgets: double the unconstrained optimum (one
// run suffices), half of it, and two hard limits that force the trivial-CSS
// mix across several re-ordered executions.
func budgetSweep(id int) ([]*budgetRow, error) {
	w := suite.MustGet(id)
	p := core.NewPlan(w.Graph, w.Catalog, css.DefaultOptions())
	u, err := p.Universe()
	if err != nil {
		return nil, err
	}
	opt, err := p.Selection(selector.MethodExact)
	if err != nil {
		return nil, err
	}
	budgets := []int64{2 * opt.Memory, opt.Memory / 2, 64, 4}
	var out []*budgetRow
	for _, budget := range budgets {
		budget = max(budget, 4)
		plan, err := selector.PlanWithBudget(u, budget)
		if err != nil {
			// Budget too small for even one requirement: report and stop.
			out = append(out, &budgetRow{Budget: budget, Runs: -1})
			break
		}
		var mem int64
		for _, m := range plan.Memory {
			mem += m
		}
		out = append(out, &budgetRow{Budget: budget, Runs: plan.NumRuns(), TotalMem: mem})
	}
	return out, nil
}

// freeRow is one row of the free-source-statistics ablation.
type freeRow struct {
	ID           int
	Mem, MemFree int64
}

// freeSourceAblation compares the optimal observation memory with and
// without Section 6.2's free source statistics (every base relation assumed
// to live in an RDBMS that already publishes statistics).
func freeSourceAblation() ([]*freeRow, error) {
	var out []*freeRow
	for _, id := range []int{3, 5, 11, 16, 23} {
		w := suite.MustGet(id)
		sel, err := core.NewPlan(w.Graph, w.Catalog, css.DefaultOptions()).Selection(selector.MethodExact)
		if err != nil {
			return nil, err
		}
		// Every second relation lives in a relational source that publishes
		// statistics; the rest are flat-file feeds (the paper's worst case).
		// suite.MustGet builds a fresh catalog to re-mark.
		marked := suite.MustGet(id)
		for i, rel := range marked.Catalog.Relations {
			rel.HasSourceStats = i%2 == 0
		}
		free := core.NewPlan(marked.Graph, marked.Catalog, css.DefaultOptions())
		u, err := free.Universe()
		if err != nil {
			return nil, err
		}
		selFree, err := free.Selection(selector.MethodExact)
		if err != nil {
			return nil, err
		}
		// Memory still counts the paid statistics only.
		var memFree int64
		for _, s := range selFree.Observe {
			if i, ok := u.Res.Lookup(s); ok && u.Cost[i] > 0 {
				memFree += u.Mem[i]
			}
		}
		out = append(out, &freeRow{ID: id, Mem: sel.Memory, MemFree: memFree})
	}
	return out, nil
}

// workRow compares the engine work (rows) of the pay-as-you-go baseline's
// Runs executions against the framework's single instrumented run.
type workRow struct {
	ID, Runs                    int
	BaselineRows, FrameworkRows int64
	Multiplier                  float64
}

// workComparison executes both approaches on materialized data.
func workComparison(ids []int, scale float64) ([]*workRow, error) {
	var out []*workRow
	for _, id := range ids {
		w := suite.MustGet(id)
		p := core.NewPlan(w.Graph, w.Catalog, css.DefaultOptions())
		sel, err := p.Selection(selector.MethodExact)
		if err != nil {
			return nil, err
		}
		res, _ := p.CSS() // computed by the selection
		eng := engine.New(res.Analysis, w.Data(scale), nil)
		eng.Workers = runtime.GOMAXPROCS(0)

		// Framework: one instrumented run with the optimal statistics.
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
		out = append(out, &workRow{ID: id, Runs: exec.Runs, BaselineRows: exec.RowsTotal, FrameworkRows: fw.Rows,
			Multiplier: float64(exec.RowsTotal) / float64(fw.Rows)})
	}
	return out, nil
}
