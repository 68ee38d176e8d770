// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) over the 30-workflow suite:
//
//	E1 — the data-characteristics table (cardinalities / unique values);
//	E2 — Figure 9: workflow complexity (#SEs, #CSS without and with
//	     union–division);
//	E3 — Figure 10: time for CSS generation and optimal-statistics
//	     selection;
//	E4 — Figure 11: memory needed to observe the optimal statistics,
//	     without and with union–division;
//	E5 — Figure 12: executions needed by the trivial-CSS-only baseline;
//	E6 — end-to-end soundness: one instrumented run yields exact
//	     cardinalities for every SE, enabling exact plan costing.
//
// They report counts and memory units, not times: the repository benchmark
// (bench/, `make bench`, `make ab REF=<ref>`) measures the planner's speed.
package experiments

import (
	"sync"
	"time"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/payg"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/suite"
)

// Workers bounds how many independent blocks run concurrently in the
// experiments that execute plans (e2e, work); values <= 1 execute
// sequentially. Observed
// statistics are identical either way, so every measurement is
// worker-count independent except wall-clock time.
var Workers int

// selectOptions caps the exact solver so wide workflows finish promptly;
// the incumbent is still reported (Optimal=false) when the cap bites.
func selectOptions() selector.Options {
	return selector.Options{Method: selector.MethodExact, MaxNodes: 4000, Timeout: 10 * time.Second}
}

// WorkflowRow is one per-workflow measurement row shared by several
// figures.
type WorkflowRow struct {
	ID   int
	Name string

	// Figure 9.
	SEs         int
	CSSPlain    int
	CSSUnionDiv int

	// Figure 10 (durations).
	GenPlain   time.Duration
	GenUD      time.Duration
	SelectTime time.Duration

	// Figure 11 (memory units).
	MemPlain int64
	MemUD    int64
	// OptimalPlain/OptimalUD report whether the solver proved optimality.
	OptimalPlain, OptimalUD bool

	// Figure 12.
	FormulaLB  int
	SemanticLB int
	Found      int

	// Greedy-vs-exact ablation (with union–division).
	GreedyMem int64
}

// runWorkflow produces the full measurement row for one suite workflow.
func runWorkflow(w *suite.Workflow) (*WorkflowRow, error) {
	row := &WorkflowRow{ID: w.ID, Name: w.Name}
	an, err := w.Analyze()
	if err != nil {
		return nil, err
	}

	start := time.Now()
	plain, err := css.Generate(an, css.Options{CrossBlock: true, FKShortcut: true})
	if err != nil {
		return nil, err
	}
	row.GenPlain = time.Since(start)

	start = time.Now()
	ud, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		return nil, err
	}
	row.GenUD = time.Since(start)

	row.SEs = ud.NumSEs()
	row.CSSPlain = plain.NumCSS()
	row.CSSUnionDiv = ud.NumCSS()

	// Figure 11: optimal memory without union–division.
	costerPlain := costmodel.NewMemoryCoster(plain, an.Cat)
	selPlain, err := selector.Select(plain, costerPlain, selectOptions())
	if err != nil {
		return nil, err
	}
	row.MemPlain = selPlain.Memory
	row.OptimalPlain = selPlain.Optimal

	// With union–division (also the Figure 10 selection timing).
	costerUD := costmodel.NewMemoryCoster(ud, an.Cat)
	start = time.Now()
	selUD, err := selector.Select(ud, costerUD, selectOptions())
	if err != nil {
		return nil, err
	}
	row.SelectTime = time.Since(start)
	row.MemUD = selUD.Memory
	row.OptimalUD = selUD.Optimal

	// Greedy ablation.
	gr, err := selector.Select(ud, costerUD, selector.Options{Method: selector.MethodGreedy})
	if err != nil {
		return nil, err
	}
	row.GreedyMem = gr.Memory

	// Figure 12 baseline.
	rep := payg.Evaluate(ud)
	row.FormulaLB = rep.FormulaLB
	row.SemanticLB = rep.SemanticLB
	row.Found = rep.Found
	return row, nil
}

// RunAllSeq measures every suite workflow sequentially — use this variant
// when the per-workflow timings (Figure 10) matter, since parallel workers
// contend for cores and inflate them.
func RunAllSeq() ([]*WorkflowRow, error) {
	var rows []*WorkflowRow
	for _, w := range suite.All() {
		row, err := runWorkflow(w)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunAll measures every suite workflow, in parallel (workflows are
// independent and deterministic, so concurrency cannot change the rows —
// only the wall-clock time of regenerating the figures).
func RunAll() ([]*WorkflowRow, error) {
	wfs := suite.All()
	rows := make([]*WorkflowRow, len(wfs))
	errs := make([]error, len(wfs))
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for i, w := range wfs {
		i, w := i, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], errs[i] = runWorkflow(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// DataCharacteristics generates the suite's source relations (at the given
// scale) and summarizes them the way the paper's Section 7 table does.
func DataCharacteristics(scale float64) data.Characteristics {
	var tables []*data.Table
	for _, w := range suite.All() {
		db := w.Data(scale)
		for _, tbl := range db {
			tables = append(tables, tbl)
		}
	}
	return data.Characterize(tables)
}
