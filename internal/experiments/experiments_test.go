package experiments

import (
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/suite"
)

// TestEndToEndExactness is the repository's headline regression: across the
// e2e workflow set, a single instrumented run yields exact cardinalities
// for every sub-expression and the optimizer never regresses.
func TestEndToEndExactness(t *testing.T) {
	rows, err := EndToEnd(0.002)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.ExactSEs != r.SEs {
			t.Errorf("wf%d: only %d/%d SEs exact", r.ID, r.ExactSEs, r.SEs)
		}
		if r.Speedup < 1 {
			t.Errorf("wf%d: optimizer regressed (%.2fx)", r.ID, r.Speedup)
		}
	}
}

// TestRunWorkflowShape spot-checks the figure rows for the paper anecdotes.
func TestRunWorkflowShape(t *testing.T) {
	// wf03: union–division slashes the memory optimum.
	row3, err := runWorkflow(suite.MustGet(3))
	if err != nil {
		t.Fatal(err)
	}
	if row3.MemUD*100 > row3.MemPlain {
		t.Errorf("wf03: UD memory %d not ≪ plain %d", row3.MemUD, row3.MemPlain)
	}
	if !row3.OptimalPlain || !row3.OptimalUD {
		t.Error("wf03 selections should be provably optimal")
	}
	// Identification stays well under a second.
	if row3.GenUD+row3.SelectTime > time.Second {
		t.Errorf("wf03 identification took %v", row3.GenUD+row3.SelectTime)
	}
}

func TestDataCharacteristicsShape(t *testing.T) {
	ch := DataCharacteristics(0.02)
	if ch.CardMax <= ch.CardMin || ch.CardMean <= 0 {
		t.Fatalf("degenerate characteristics: %+v", ch)
	}
	// High payload skew pushes median unique values below median
	// cardinality, the paper's Section 7 shape.
	if ch.UVMean > ch.CardMean {
		t.Errorf("UV mean %d above card mean %d", ch.UVMean, ch.CardMean)
	}
}

func TestBudgetSweepMonotone(t *testing.T) {
	rows, err := BudgetSweep(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("sweep too short: %d", len(rows))
	}
	prev := 0
	for _, r := range rows {
		if r.Runs < 0 {
			break
		}
		if r.Runs < prev {
			t.Errorf("runs decreased when budget tightened: %+v", rows)
		}
		prev = r.Runs
	}
}

func TestFreeSourceAblationSaves(t *testing.T) {
	rows, err := FreeSourceAblation()
	if err != nil {
		t.Fatal(err)
	}
	saved := false
	for _, r := range rows {
		if r.MemFree > r.Mem {
			t.Errorf("wf%d: free source stats increased memory %d → %d", r.ID, r.Mem, r.MemFree)
		}
		if r.MemFree < r.Mem {
			saved = true
		}
	}
	if !saved {
		t.Error("free source statistics saved nothing anywhere")
	}
}

func TestErrorSweepMonotone(t *testing.T) {
	rows, err := ErrorSweep([]int{5, 17}, 0.002, []int{2, 32, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // the bucket counts plus the appended count-min row
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[2].MeanRelErr != 0 || rows[2].MaxRelErr != 0 {
		t.Fatalf("exact histograms must have zero error: %+v", rows[2])
	}
	if rows[1].MeanRelErr > rows[0].MeanRelErr {
		t.Fatalf("error grew with resolution: %v then %v", rows[0].MeanRelErr, rows[1].MeanRelErr)
	}
	if rows[0].Memory >= rows[1].Memory {
		t.Fatalf("memory should grow with buckets: %d then %d", rows[0].Memory, rows[1].Memory)
	}
	sk := rows[3]
	if !sk.Sketch {
		t.Fatalf("last row should be the count-min point: %+v", sk)
	}
	if sk.CPU <= 0 || sk.CPU >= rows[2].CPU {
		t.Fatalf("sketch observation CPU %.1f should be positive and below exact %.1f",
			sk.CPU, rows[2].CPU)
	}
	if sk.Memory <= 0 {
		t.Fatalf("sketch memory = %d", sk.Memory)
	}
}

func TestWorkComparisonBaselinePaysMore(t *testing.T) {
	rows, err := WorkComparison([]int{5, 30}, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Runs > 1 && r.BaselineRows <= r.FrameworkRows {
			t.Errorf("wf%d: baseline work %d not above framework %d despite %d runs",
				r.ID, r.BaselineRows, r.FrameworkRows, r.Runs)
		}
	}
}

// TestGoldenFigureValues pins exact experiment numbers for key workflows —
// the suite and every algorithm are deterministic, so these reproduce
// bit-identically; any drift means an algorithm change that EXPERIMENTS.md
// must re-record.
func TestGoldenFigureValues(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	type golden struct {
		ses, cssPlain, cssUD int
		memPlain, memUD      int64
		formulaLB, found     int
	}
	want := map[int]golden{
		1:  {1, 1, 1, 1, 1, 1, 1},
		3:  {6, 15, 43, 800003, 304, 3, 2},
		16: {21, 145, 455, 57147, 57147, 14, 5},
		21: {135, 21945, 39273, 8, 8, 41, 35},
		23: {6, 15, 43, 3447, 3447, 3, 2},
		30: {37, 1271, 2916, 6, 6, 14, 10},
	}
	for id, g := range want {
		row, err := runWorkflow(suite.MustGet(id))
		if err != nil {
			t.Fatalf("wf%02d: %v", id, err)
		}
		got := golden{row.SEs, row.CSSPlain, row.CSSUnionDiv, row.MemPlain, row.MemUD, row.FormulaLB, row.Found}
		if got != g {
			t.Errorf("wf%02d: got %+v, golden %+v", id, got, g)
		}
		if !row.OptimalPlain || !row.OptimalUD {
			t.Errorf("wf%02d: selection not proven optimal", id)
		}
	}
}

func TestScaleSweepSmall(t *testing.T) {
	rows, err := ScaleSweep(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // n = 3..5 × two shapes
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if !r.Optimal {
			t.Errorf("%s-%d not proven optimal", r.Shape, r.N)
		}
		if r.Shape == "fk-star" && r.Mem != int64(r.N) {
			t.Errorf("fk-star-%d memory = %d, want %d counters", r.N, r.Mem, r.N)
		}
	}
}
