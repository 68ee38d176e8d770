package experiments

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// measured is one report every test shares: an experiment is measured the
// first time a test asks for it, at cmd/experiments' default scale, and its
// tables kept.
var (
	measured       = &report{scale: 0.002}
	measuredTables = map[string][]*Table{}
)

func measure(t *testing.T, exp string) []*Table {
	t.Helper()
	ts, ok := measuredTables[exp]
	if !ok {
		var err error
		if ts, err = measured.tables(exp); err != nil {
			t.Fatal(err)
		}
		measuredTables[exp] = ts
	}
	return ts
}

// suiteRows is the suite sweep, indexed by workflow id − 1.
func suiteRows(t *testing.T) []*workflowRow {
	measure(t, "fig9")
	return measured.wf[0]
}

// TestEndToEndExactness is the repository's headline regression: across the
// e2e workflow set, a single instrumented run yields exact cardinalities
// for every sub-expression and the optimizer never regresses.
func TestEndToEndExactness(t *testing.T) {
	measure(t, "e2e")
	rows := measured.e2e
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
	row3 := suiteRows(t)[2]
	// wf03: union–division slashes the memory optimum.
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
	measure(t, "data")
	ch := measured.data
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
	measure(t, "budget")
	rows := measured.budget
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
	measure(t, "free")
	saved := false
	for _, r := range measured.free {
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
	measure(t, "error")
	rows := measured.errs
	if len(rows) != 5 { // 2, 8, 32, 128 buckets, exact
		t.Fatalf("rows = %d", len(rows))
	}
	exact := rows[4]
	if exact.Buckets != 0 || exact.MeanRelErr != 0 || exact.MaxRelErr != 0 {
		t.Fatalf("exact histograms must have zero error: %+v", exact)
	}
	for i := 1; i < 4; i++ {
		if rows[i].MeanRelErr >= rows[i-1].MeanRelErr {
			t.Errorf("error did not fall with resolution: %v then %v", rows[i-1].MeanRelErr, rows[i].MeanRelErr)
		}
		if rows[i].Memory <= rows[i-1].Memory {
			t.Errorf("memory should grow with buckets: %d then %d", rows[i-1].Memory, rows[i].Memory)
		}
	}
}

func TestWorkComparisonBaselinePaysMore(t *testing.T) {
	measure(t, "work")
	for _, r := range measured.work {
		if r.Runs > 1 && r.BaselineRows <= r.FrameworkRows {
			t.Errorf("wf%d: baseline work %d not above framework %d despite %d runs",
				r.ID, r.BaselineRows, r.FrameworkRows, r.Runs)
		}
	}
}

func TestScaleSweepSmall(t *testing.T) {
	measure(t, "scale")
	rows := measured.widths[0]
	if len(rows) != 14 { // n = 3..9 × two shapes
		t.Fatalf("rows = %d, want 14", len(rows))
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

// docRegions reads every generated region of EXPERIMENTS.md, markers
// included, by table id.
func docRegions(t *testing.T) map[string][]string {
	t.Helper()
	src, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	begin := regexp.MustCompile(`^<!-- experiments:(\S+) -->$`)
	regions := make(map[string][]string)
	id := ""
	for _, line := range strings.Split(string(src), "\n") {
		if m := begin.FindStringSubmatch(line); m != nil {
			id = m[1]
		}
		if id != "" {
			regions[id] = append(regions[id], line)
		}
		if line == "<!-- /experiments:"+id+" -->" {
			id = ""
		}
	}
	return regions
}

// cells splits a markdown table row; nil for any other line.
func cells(line string) []string {
	if !strings.HasPrefix(line, "| ") || !strings.HasSuffix(line, " |") {
		return nil
	}
	return strings.Split(line[2:len(line)-2], " | ")
}

// TestExperimentsDocIsGenerated holds EXPERIMENTS.md to the code: every
// table's region must be the bytes Markdown renders, except the timed
// cells and the note naming their host. A mismatch names the table, the
// row and the column; `make experiments` rewrites the file.
func TestExperimentsDocIsGenerated(t *testing.T) {
	regions := docRegions(t)
	for _, e := range experimentOrder {
		for _, tb := range measure(t, e.name) {
			doc, ok := regions[tb.id]
			delete(regions, tb.id)
			if !ok {
				t.Errorf("EXPERIMENTS.md has no region for table %s: add its markers and run make experiments", tb.id)
				continue
			}
			gen := strings.Split(strings.TrimSuffix(tb.Markdown(), "\n"), "\n")
			if len(gen) != len(doc) {
				t.Errorf("EXPERIMENTS.md table %s: %d lines, the code renders %d; run make experiments", tb.id, len(doc), len(gen))
				continue
			}
			for i := range gen {
				g, d := gen[i], doc[i]
				if g == d || strings.HasPrefix(g, notePrefix) && strings.HasPrefix(d, notePrefix) {
					continue
				}
				gc, dc := cells(g), cells(d)
				if gc == nil || len(gc) != len(dc) || i < 5 { // marker, title, header and rule lines compare whole
					t.Errorf("EXPERIMENTS.md table %s, line %d: file has %q, the code renders %q; run make experiments", tb.id, i+1, d, g)
					continue
				}
				for j := range gc {
					if gc[j] != dc[j] && !tb.timed[j] {
						t.Errorf("EXPERIMENTS.md table %s, row %d (%s), column %q: file has %q, the code gives %q; run make experiments",
							tb.id, i-4, gc[0], tb.cols[j], dc[j], gc[j])
					}
				}
			}
		}
	}
	for id := range regions {
		t.Errorf("EXPERIMENTS.md region %s is no table the code renders", id)
	}
}

// TestDocClaims asserts every number EXPERIMENTS.md's prose states outside
// the generated tables; each check quotes the sentence it holds.
func TestDocClaims(t *testing.T) {
	wf := suiteRows(t)
	ids := func(keep func(w *workflowRow) bool) []int {
		var out []int
		for _, w := range wf {
			if keep(w) {
				out = append(out, w.ID)
			}
		}
		return out
	}
	claim := func(ok bool, sentence string, got ...any) {
		t.Helper()
		if !ok {
			t.Errorf("EXPERIMENTS.md says %q, but the code measures %v", sentence, fmt.Sprint(got...))
		}
	}

	claim(timedSweeps == 5, "Each such cell is the median of 5 sequential sweeps", timedSweeps)
	claim(paperIdentifyMS == 100, `The paper reports it "within 100 ms for all the workflows"`, paperIdentifyMS)
	claim(len(e2eWorkflows) == 6, "for six representative workflows", len(e2eWorkflows))

	measure(t, "data")
	ch := measured.data
	claim(2*ch.UVMean < ch.CardMean && 2*paperData[2][1] > paperData[2][0],
		"Our mean UV is below half our mean cardinality, where the paper's is above half", ch.UVMean, " ", ch.CardMean)
	claim(ch.CardMin < paperData[1][0] && ch.UVMin < paperData[1][1] && ch.CardMedian < paperData[3][0] && ch.UVMedian < paperData[3][1],
		"Our minima and medians sit below the paper's", ch)

	// E2.
	claim(wf[0].SEs == 1 && wf[1].SEs == 1, "the linear flows wf01 and wf02 have one SE each", wf[0].SEs, " ", wf[1].SEs)
	claim(slices.Equal(ids(func(w *workflowRow) bool {
		return w.SEs >= wf[20].SEs && w.CSSPlain >= wf[20].CSSPlain && w.CSSUnionDiv >= wf[20].CSSUnionDiv
	}), []int{21}), "wf21 has the most SEs and the most CSSs with and without union–division")
	claim(slices.Equal(ids(func(w *workflowRow) bool { return w.CSSUnionDiv < w.CSSPlain }), nil), "it never lowers a CSS count")
	unchanged := ids(func(w *workflowRow) bool { return w.CSSUnionDiv == w.CSSPlain })
	claim(slices.Equal(unchanged, []int{1, 2, 6, 7, 8, 13, 14}), "leaves seven workflows unchanged", unchanged)
	lo, hi := wf[20], wf[4]
	for _, w := range wf {
		if w.CSSUnionDiv > w.CSSPlain && udFactor(w) < udFactor(lo) {
			lo = w
		}
		if udFactor(w) > udFactor(hi) {
			hi = w
		}
	}
	claim(lo.ID == 21 && hi.ID == 5 && fmt.Sprintf("%.2f %.2f", udFactor(lo), udFactor(hi)) == "1.79 3.42",
		"multiplies the others' by 1.79 (wf21) up to 3.42 (wf05)", lo.ID, hi.ID)

	// E4.
	claim(slices.Equal(ids(func(w *workflowRow) bool { return !w.OptimalPlain || !w.OptimalUD }), nil),
		"Every selection is proven optimal")
	claim(slices.Equal(ids(func(w *workflowRow) bool { return w.MemUD > w.MemPlain }), nil),
		"Union–division never raises the optimum")
	lower := ids(func(w *workflowRow) bool { return w.MemUD < w.MemPlain })
	claim(slices.Equal(lower, []int{3, 5, 17, 18, 24, 25, 28}), "lowers it on exactly seven workflows", lower)
	for _, id := range []int{4, 19, 21, 26, 30} {
		claim(wf[id-1].MemUD <= 8, "The FK look-up workflows need at most 8 units each", id, ": ", wf[id-1].MemUD)
	}

	// E5.
	claim(wf[20].FormulaLB == paperWF21Bound && wf[29].FormulaLB == paperWF30Bound,
		"The paper's formula lower bound reproduces exactly on wf21 and wf30")
	claim(slices.Equal(ids(func(w *workflowRow) bool { return w.Found < w.SemanticLB || w.Found > w.FormulaLB }), nil),
		"On every workflow our found sequence lies between the semantics-aware lower bound and the formula bound")
	claim(paperWF21Found > paperWF21Bound && paperWF30Found > paperWF30Bound,
		"the paper's hand-constructed sequences landed above the formula")
	most := slices.MaxFunc(wf, func(a, b *workflowRow) int { return a.Found - b.Found })
	claim(wf[0].Found == 1 && most.Found >= 24, "the trivial-CSS baseline needs one to dozens of executions", most.Found)

	// E6.
	measure(t, "e2e")
	for _, r := range measured.e2e {
		claim(r.MaxQ == 1, "every maxQ is 1", r.ID, ": ", r.MaxQ)
		claim(r.OptCost <= r.InitCost, "it never makes a plan costlier", r.ID)
		claim(r.OptCost == r.InitCost || r.OptRows < r.InitRows, "The engine work of the optimized plan falls wherever its cost does", r.ID)
	}

	// Ablations.
	var gaps []float64
	for _, w := range wf {
		gaps = append(gaps, greedyGap(w))
	}
	over := ids(func(w *workflowRow) bool { return greedyGap(w) > 3 })
	claim(slices.Equal(over, []int{12}) && greedyGap(wf[11]) > 30,
		"within 3% of the proven optimum on 29 of 30 workflows, with one outlier above 30%: wf12", over)
	slices.Sort(gaps)
	median := fmt.Sprintf("%.1f", (gaps[14]+gaps[15])/2)
	claim(median == "0.1", "median gap 0.1%", median)

	measure(t, "budget")
	b := measured.budget
	claim(b[0].Runs == 1 && b[len(b)-1].TotalMem < b[0].TotalMem,
		"twice the unconstrained optimum needs one execution, ... trivial CSSs cut the total memory observed", b[0].Runs)
	for _, r := range b[1:] {
		claim(r.Runs > 1, "every smaller budget needs more", r.Budget, ": ", r.Runs)
	}
	measure(t, "free")
	for _, f := range measured.free {
		claim(freeSaved(f) >= 60, "drops by at least 60% on every workflow measured", f.ID, ": ", freeSaved(f))
	}

	// Extensions.
	measure(t, "error")
	e := measured.errs
	claim(e[4].Memory < e[3].Memory, "the exact per-value histograms cost less memory than 128 equi-width buckets")

	measure(t, "scale")
	var prev = map[string]*scaleRow{}
	for _, s := range measured.widths[0] {
		if p := prev[s.Shape]; p != nil && s.N >= 6 {
			growth := float64(s.CSS) / float64(p.CSS)
			if s.Shape == "chain" {
				claim(growth <= 1.7, "each added relation multiplies a chain's CSS count by at most 1.7", s.N, ": ", growth)
			} else {
				claim(growth >= 3.5, "each added relation multiplying the CSS count by at least 3.5", s.N, ": ", growth)
			}
		}
		prev[s.Shape] = s
		claim(s.Optimal, "every selection proven optimal", s.Shape, s.N)
	}

	measure(t, "work")
	top := measured.work[0]
	for _, w := range measured.work {
		claim(w.Multiplier > 1, "The baseline pays more execution work than the framework's one run on every workflow measured", w.ID)
		if w.Multiplier > top.Multiplier {
			top = w
		}
	}
	claim(top.ID == 9 && top.Multiplier > 40, "and more than 40× on wf09", top.ID, ": ", top.Multiplier)
}
