// Package experiments regenerates every table of EXPERIMENTS.md: the
// paper's evaluation (Section 7: the data table, Figures 9–12) over the
// 30-workflow suite, the end-to-end soundness check, and the ablations and
// extensions beside them.
//
// Every table is a Table, and Markdown is its one rendering: EXPERIMENTS.md
// holds each between region markers, `make experiments` rewrites them, and
// the package's tests diff every cell against the file. Two tables are
// timed, E3 (Figure 10) and the scale sweep's gen/select columns: their
// cells are the median of several sequential sweeps, the line under them
// names the host and the date, and the diff skips them. Every other cell
// is a count, a memory unit, a row count or a q-error, reproducible to the
// byte.
package experiments

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/suite"
)

// Table is one generated table: a title, column names, rows of cells, and
// which columns hold wall-clock times.
type Table struct {
	id, title string
	cols      []string
	timed     []bool
	rows      [][]string
	// note, under a timed table, says how, where and when it was timed.
	note string
}

// notePrefix starts a timed table's note.
const notePrefix = "Times: "

func newTable(id, title string, cols ...string) *Table {
	return &Table{id: id, title: title, cols: cols, timed: make([]bool, len(cols))}
}

// add appends one row; each value prints with fmt.Sprint, so callers
// format floats themselves.
func (t *Table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

// timeCols marks columns as wall-clock medians over timedSweeps sequential
// sweeps and writes the note that names the host and the date.
func (t *Table) timeCols(cols ...int) {
	for _, c := range cols {
		t.timed[c] = true
	}
	t.note = fmt.Sprintf("%smedian of %d sequential sweeps on %s, %s.",
		notePrefix, timedSweeps, host(), time.Now().UTC().Format("2006-01-02"))
}

// Markdown renders the table as the EXPERIMENTS.md region that holds it,
// markers included.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<!-- experiments:%s -->\n**%s**\n\n", t.id, t.title)
	line := func(cells []string) { fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | ")) }
	line(t.cols)
	rule := make([]string, len(t.cols))
	for i := range rule {
		rule[i] = "---"
	}
	line(rule)
	for _, r := range t.rows {
		line(r)
	}
	if t.note != "" {
		fmt.Fprintf(&b, "\n%s\n", t.note)
	}
	fmt.Fprintf(&b, "<!-- /experiments:%s -->\n", t.id)
	return b.String()
}

// timedSweeps is how many sequential sweeps a timed cell is the median of.
const timedSweeps = 5

// Tables measures experiment exp — data, fig9, fig10, fig11, fig12, e2e,
// greedy, budget, free, error, scale or work, or "all" for every one in
// EXPERIMENTS.md's order — and returns its tables. scale is the data scale
// of the plan executions (e2e, error, work); E1 always characterizes the
// paper-sized relations.
func Tables(exp string, scale float64) ([]*Table, error) {
	return (&report{scale: scale}).tables(exp)
}

// EndToEndTable is E6's table for one suite workflow; an id outside the
// suite returns *suite.UnknownWorkflowError.
func EndToEndTable(id int, scale float64) (*Table, error) {
	w, err := suite.Get(id)
	if err != nil {
		return nil, err
	}
	rows, err := endToEnd([]*suite.Workflow{w}, scale)
	if err != nil {
		return nil, err
	}
	return (&report{scale: scale, e2e: rows}).e2eTables()[0], nil
}

// report holds the measurements behind the tables, each taken once and
// read by every table that needs it.
type report struct {
	scale float64

	data   data.Characteristics
	wf     [][]*workflowRow // one slice per sequential sweep of the suite
	e2e    []*e2eRow
	budget []*budgetRow
	free   []*freeRow
	errs   []*errorRow
	widths [][]*scaleRow // one slice per sequential scale sweep
	work   []*workRow
}

// experimentOrder is every experiment in EXPERIMENTS.md's order: what it
// measures into the report, and the tables it renders from it.
var experimentOrder = []struct {
	name    string
	measure func(*report) error
	render  func(*report) []*Table
}{
	{"data", func(r *report) error { r.data = dataCharacteristics(); return nil }, (*report).dataTables},
	{"fig9", (*report).sweepSuite, (*report).fig9},
	{"fig10", (*report).sweepSuite, (*report).fig10},
	{"fig11", (*report).sweepSuite, (*report).fig11},
	{"fig12", (*report).sweepSuite, (*report).fig12},
	{"e2e", func(r *report) (err error) { r.e2e, err = endToEnd(suite.All(), r.scale); return err }, (*report).e2eTables},
	{"greedy", (*report).sweepSuite, (*report).greedyTables},
	{"budget", func(r *report) (err error) { r.budget, err = budgetSweep(9); return err }, (*report).budgetTables},
	{"free", func(r *report) (err error) { r.free, err = freeSourceAblation(); return err }, (*report).freeTables},
	{"error", func(r *report) (err error) {
		r.errs, err = errorSweep([]int{5, 9, 16, 17}, r.scale, []int{2, 8, 32, 128, 0})
		return err
	}, (*report).errorTables},
	{"scale", (*report).sweepWidths, (*report).scaleTables},
	{"work", func(r *report) (err error) { r.work, err = workComparison([]int{5, 9, 17, 30}, r.scale); return err }, (*report).workTables},
}

func (r *report) tables(exp string) ([]*Table, error) {
	var out []*Table
	for _, e := range experimentOrder {
		if exp != "all" && exp != e.name {
			continue
		}
		if err := e.measure(r); err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		out = append(out, e.render(r)...)
	}
	if out == nil {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	return out, nil
}

// sweepSuite and sweepWidths take the sequential sweeps a timed table's
// median needs; the untimed tables read the first.
func (r *report) sweepSuite() error {
	for len(r.wf) < timedSweeps {
		var rows []*workflowRow
		for _, w := range suite.All() {
			row, err := runWorkflow(w)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		r.wf = append(r.wf, rows)
	}
	return nil
}

func (r *report) sweepWidths() error {
	for len(r.widths) < timedSweeps {
		rows, err := scaleSweep(9)
		if err != nil {
			return err
		}
		r.widths = append(r.widths, rows)
	}
	return nil
}

func (r *report) dataTables() []*Table {
	ch, p := r.data, paperData
	t := newTable("data", "E1: data characteristics of the source relations (Section 7 table)",
		"Stat", "paper Card", "ours Card", "paper UV", "ours UV")
	t.add("Max", p[0][0], ch.CardMax, p[0][1], ch.UVMax)
	t.add("Min", p[1][0], ch.CardMin, p[1][1], ch.UVMin)
	t.add("Mean", p[2][0], ch.CardMean, p[2][1], ch.UVMean)
	t.add("Median", p[3][0], ch.CardMedian, p[3][1], ch.UVMedian)
	return []*Table{t}
}

// udFactor is how many times more CSSs union–division generates.
func udFactor(w *workflowRow) float64 { return float64(w.CSSUnionDiv) / float64(w.CSSPlain) }

func (r *report) fig9() []*Table {
	t := newTable("fig9", "E2 / Figure 9: complexity of the workflows", "wf", "#SEs", "#CSS", "#CSS+UD", "UD×")
	for _, w := range r.wf[0] {
		t.add(w.ID, w.SEs, w.CSSPlain, w.CSSUnionDiv, fmt.Sprintf("%.2f", udFactor(w)))
	}
	return []*Table{t}
}

func (r *report) fig10() []*Table {
	t := newTable("fig10", fmt.Sprintf("E3 / Figure 10: time for statistics identification, ms (paper: within %d ms for every workflow)", paperIdentifyMS),
		"wf", "CSSgen", "CSSgen+UD", "select", "total")
	t.timeCols(1, 2, 3, 4)
	for i, w := range r.wf[0] {
		t.add(w.ID,
			medianMS(r.wf, i, func(w *workflowRow) time.Duration { return w.GenPlain }),
			medianMS(r.wf, i, func(w *workflowRow) time.Duration { return w.GenUD }),
			medianMS(r.wf, i, func(w *workflowRow) time.Duration { return w.SelectTime }),
			medianMS(r.wf, i, func(w *workflowRow) time.Duration { return w.GenUD + w.SelectTime }))
	}
	return []*Table{t}
}

// shrink renders "from → to (N×)".
func shrink(from, to int64) string {
	return fmt.Sprintf("%d → %d (%.0f×)", from, to, float64(from)/float64(to))
}

func (r *report) fig11() []*Table {
	rows := r.wf[0]
	t := newTable("fig11", "E4 / Figure 11: memory units to observe the optimal statistics",
		"wf", "mem", "mem+UD", "optimal", "optimal+UD")
	var largest int64
	for _, w := range rows {
		t.add(w.ID, w.MemPlain, w.MemUD, w.OptimalPlain, w.OptimalUD)
		largest = max(largest, w.MemUD)
	}
	w3, w16, w23 := rows[2], rows[15], rows[22]
	p := newTable("fig11-paper", "E4 / Figure 11: the paper's anecdotes, memory units", "anecdote", "paper", "measured")
	p.add("wf03 without → with union–division", shrink(paperWF03Plain, paperWF03UD), shrink(w3.MemPlain, w3.MemUD))
	p.add("wf16 optimum", fmt.Sprintf("≈ %d", paperWF16), w16.MemUD)
	p.add("wf23: union–division generated, not chosen",
		fmt.Sprintf("%d (its UD variant: %d)", paperWF23, paperWF23UDVariant),
		fmt.Sprintf("%d with UD, %d without", w23.MemUD, w23.MemPlain))
	p.add("largest optimum", fmt.Sprintf("≈ %d", paperMaxMemory), largest)
	return []*Table{t, p}
}

func (r *report) fig12() []*Table {
	rows := r.wf[0]
	t := newTable("fig12", "E5 / Figure 12: executions to cover every SE (trivial-CSS baseline)",
		"wf", "formulaLB", "semanticLB", "found", "framework")
	for _, w := range rows {
		t.add(w.ID, w.FormulaLB, w.SemanticLB, w.Found, 1)
	}
	w1, w2, w21, w30 := rows[0], rows[1], rows[20], rows[29]
	p := newTable("fig12-paper", "E5 / Figure 12: the paper's anecdotes, executions", "anecdote", "paper", "measured")
	p.add("wf21 (8-way join): formula lower bound", paperWF21Bound, w21.FormulaLB)
	p.add("wf21: re-ordering sequence found", fmt.Sprintf("> %d", paperWF21Found), w21.Found)
	p.add("wf30 (6-way join): formula lower bound", paperWF30Bound, w30.FormulaLB)
	p.add("wf30: re-ordering sequence found", paperWF30Found, w30.Found)
	p.add("linear flows wf01, wf02: found", paperLinear, fmt.Sprintf("%d, %d", w1.Found, w2.Found))
	return []*Table{t, p}
}

func (r *report) e2eTables() []*Table {
	t := newTable("e2e", fmt.Sprintf("E6: end-to-end, observe once and optimize exactly (scale %g)", r.scale),
		"wf", "SEs", "exact", "initCost", "optCost", "speedup", "initRows", "optRows", "maxQ")
	for _, e := range r.e2e {
		if e.Stopped {
			t.add(e.ID, "—", fmt.Sprintf("stopped at %d rows", e2eMaxRows), "—", "—", "—", "—", "—", "—")
			continue
		}
		t.add(e.ID, e.SEs, fmt.Sprintf("%d/%d", e.ExactSEs, e.SEs), fmt.Sprintf("%.0f", e.InitCost),
			fmt.Sprintf("%.0f", e.OptCost), fmt.Sprintf("%.2fx", e.Speedup), e.InitRows, e.OptRows,
			fmt.Sprintf("%.3g", e.MaxQ))
	}
	return []*Table{t}
}

// greedyGap is the greedy selection's memory above the optimum, in percent.
func greedyGap(w *workflowRow) float64 {
	return 100 * float64(w.GreedyMem-w.MemUD) / float64(w.MemUD)
}

func (r *report) greedyTables() []*Table {
	t := newTable("greedy", "Ablation: exact branch and bound vs greedy heuristic (memory units, with union–division)",
		"wf", "exact", "greedy", "gap %")
	for _, w := range r.wf[0] {
		t.add(w.ID, w.MemUD, w.GreedyMem, fmt.Sprintf("%.1f", greedyGap(w)))
	}
	return []*Table{t}
}

func (r *report) budgetTables() []*Table {
	t := newTable("budget", "Section 6.1: per-run memory budget vs executions needed (wf09)", "budget", "runs", "totalMem")
	for _, b := range r.budget {
		t.add(b.Budget, b.Runs, b.TotalMem)
	}
	return []*Table{t}
}

// freeSaved is the share of memory free source statistics save, in percent.
func freeSaved(f *freeRow) float64 { return 100 * float64(f.Mem-f.MemFree) / float64(f.Mem) }

func (r *report) freeTables() []*Table {
	t := newTable("free", "Section 6.2: free source statistics (every second relation publishes them)",
		"wf", "mem", "mem (free src)", "saved %")
	for _, f := range r.free {
		t.add(f.ID, f.Mem, f.MemFree, fmt.Sprintf("%.1f", freeSaved(f)))
	}
	return []*Table{t}
}

func (r *report) errorTables() []*Table {
	t := newTable("error", fmt.Sprintf("Section 8 extension: estimation error vs histogram memory (scale %g)", r.scale),
		"buckets", "memory", "meanRelErr", "maxRelErr", "joins")
	for _, e := range r.errs {
		label := fmt.Sprint(e.Buckets)
		if e.Buckets == 0 {
			label = "exact"
		}
		t.add(label, e.Memory, fmt.Sprintf("%.4f", e.MeanRelErr),
			fmt.Sprintf("%.4f", e.MaxRelErr), e.Joins)
	}
	return []*Table{t}
}

func (r *report) scaleTables() []*Table {
	t := newTable("scale", "Scalability: identification cost vs join width (gen and select in ms)",
		"shape", "n", "stats", "CSS", "gen", "select", "mem", "optimal")
	t.timeCols(4, 5)
	for i, s := range r.widths[0] {
		t.add(s.Shape, s.N, s.Stats, s.CSS,
			medianMS(r.widths, i, func(s *scaleRow) time.Duration { return s.Gen }),
			medianMS(r.widths, i, func(s *scaleRow) time.Duration { return s.Select }),
			s.Mem, s.Optimal)
	}
	return []*Table{t}
}

func (r *report) workTables() []*Table {
	t := newTable("work", fmt.Sprintf("Baseline engine work: pay-as-you-go sequence vs one instrumented run (scale %g)", r.scale),
		"wf", "runs", "baselineRows", "frameworkRows", "multiplier")
	for _, w := range r.work {
		t.add(w.ID, w.Runs, w.BaselineRows, w.FrameworkRows, fmt.Sprintf("%.1fx", w.Multiplier))
	}
	return []*Table{t}
}

// medianMS is the median over the sweeps of row i's f, in milliseconds.
func medianMS[R any](sweeps [][]R, i int, f func(R) time.Duration) string {
	ds := make([]time.Duration, len(sweeps))
	for s, rows := range sweeps {
		ds[s] = f(rows[i])
	}
	slices.Sort(ds)
	return fmt.Sprintf("%.1f", float64(ds[len(ds)/2])/float64(time.Millisecond))
}

// host names the machine timed cells were measured on: CPU count, the CPU
// model where /proc/cpuinfo gives it, platform and Go version.
func host() string {
	model := ""
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = " " + strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("a %d-CPU%s host (%s/%s, %s)", runtime.NumCPU(), model, runtime.GOOS, runtime.GOARCH, runtime.Version())
}
