package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// skewedRetail builds a flow whose designed order is bad: Orders joins the
// huge Log first although the Region filter join would shrink it far more.
func skewedRetail(t *testing.T) (*workflow.Graph, *workflow.Catalog, engine.DB) {
	t.Helper()
	specs := []data.TableSpec{
		{Rel: "Orders", Card: 3000, Columns: []data.ColumnSpec{
			{Name: "oid", Serial: true},
			{Name: "lid", Domain: 40, Skew: 1.5},
			{Name: "rid", Domain: 30, Skew: 1.3},
		}},
		{Rel: "Log", Card: 2000, Columns: []data.ColumnSpec{
			{Name: "lid", Domain: 40, Skew: 1.5},
		}},
		{Rel: "Region", Card: 8, Columns: []data.ColumnSpec{
			{Name: "rid", Domain: 30},
		}},
	}
	db := engine.DB{}
	cat := &workflow.Catalog{}
	for i, s := range specs {
		tbl := data.Generate(s, 31+int64(i))
		db[s.Rel] = tbl
		cat.Relations = append(cat.Relations, data.CatalogEntry(tbl, s))
	}
	b := workflow.NewBuilder("skewed")
	o := b.Source("Orders")
	l := b.Source("Log")
	r := b.Source("Region")
	j1 := b.Join(o, l, workflow.Attr{Rel: "Orders", Col: "lid"}, workflow.Attr{Rel: "Log", Col: "lid"})
	j2 := b.Join(j1, r, workflow.Attr{Rel: "Orders", Col: "rid"}, workflow.Attr{Rel: "Region", Col: "rid"})
	b.Sink(j2, "dw")
	return b.Graph(), cat, db
}

func TestRunFullCycle(t *testing.T) {
	g, cat, db := skewedRetail(t)
	cy, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cy.Selection == nil || len(cy.Selection.Observe) == 0 {
		t.Fatal("no statistics selected")
	}
	if cy.Observed == nil || cy.Observed.Observed.Len() == 0 {
		t.Fatal("no statistics observed")
	}
	// The optimizer must find a plan at least as good as the designed one,
	// and the improvement metric must be consistent.
	if cy.Plans.TotalCost > cy.Plans.TotalInitialCost {
		t.Fatalf("optimized cost %v worse than initial %v", cy.Plans.TotalCost, cy.Plans.TotalInitialCost)
	}
	if cy.Plans.Improvement() < 1 {
		t.Fatalf("improvement %v < 1", cy.Plans.Improvement())
	}
	// Executing the optimized plan must produce identical output
	// cardinality (plans are semantically equivalent).
	init, err := engine.New(cy.Analysis, db, nil).RunPlans(nil, nil, nil)
	if err != nil {
		t.Fatalf("initial run: %v", err)
	}
	opt, err := cy.RunOptimized()
	if err != nil {
		t.Fatalf("RunOptimized: %v", err)
	}
	if init.Sinks["dw"].Card() != opt.Sinks["dw"].Card() {
		t.Fatalf("optimized output %d rows, initial %d", opt.Sinks["dw"].Card(), init.Sinks["dw"].Card())
	}
	if cy.Optimized == nil {
		t.Fatal("cycle did not record the optimized run")
	}
}

func TestCycleTimingsPopulated(t *testing.T) {
	g, cat, db := skewedRetail(t)
	cy, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tm := cy.Timings
	if tm.Analyze <= 0 || tm.GenerateCSS <= 0 || tm.Select <= 0 || tm.ObserveRun <= 0 || tm.Optimize <= 0 {
		t.Fatalf("timings not populated: %+v", tm)
	}
}

func TestRunGreedyMethod(t *testing.T) {
	g, cat, db := skewedRetail(t)
	cfg := DefaultConfig()
	cfg.Method = selector.MethodGreedy
	cy, err := Run(g, cat, db, cfg)
	if err != nil {
		t.Fatalf("Run(greedy): %v", err)
	}
	if cy.Plans.TotalCost > cy.Plans.TotalInitialCost {
		t.Fatal("greedy-selected statistics still must allow full optimization")
	}
}

func TestDriftReoptimization(t *testing.T) {
	// Simulate the paper's design-once-execute-repeatedly drift story: after
	// data changes, a fresh cycle over the new data may choose a different
	// plan; both cycles' optimized plans must stay correct.
	g, cat, db := skewedRetail(t)
	cy1, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("cycle 1: %v", err)
	}
	// Drift: Region grows tenfold and Log shrinks.
	db["Region"] = data.Generate(data.TableSpec{Rel: "Region", Card: 500, Columns: []data.ColumnSpec{
		{Name: "rid", Domain: 30},
	}}, 77)
	db["Log"] = data.Generate(data.TableSpec{Rel: "Log", Card: 50, Columns: []data.ColumnSpec{
		{Name: "lid", Domain: 40, Skew: 1.5},
	}}, 78)
	cy2, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("cycle 2: %v", err)
	}
	for _, cy := range []*Cycle{cy1, cy2} {
		if _, err := cy.RunOptimized(); err != nil {
			t.Fatalf("RunOptimized: %v", err)
		}
	}
}

// optimizeSaved is a fresh process optimizing from a saved statistics
// file: read the store, then optimize through a new Plan.
func optimizeSaved(g *workflow.Graph, cat *workflow.Catalog, r io.Reader, cfg Config) (*estimate.Estimator, *optimizer.Result, error) {
	store, err := stats.ReadStore(r)
	if err != nil {
		return nil, nil, err
	}
	return NewPlan(g, cat, cfg.CSS).Optimize(store, cfg)
}

func TestSaveAndOptimizeFromSaved(t *testing.T) {
	g, cat, db := skewedRetail(t)
	cy, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := cy.SaveStats(&buf); err != nil {
		t.Fatalf("SaveStats: %v", err)
	}
	// A "fresh process": rebuild everything from the saved statistics.
	est, plans, err := optimizeSaved(g, cat, &buf, DefaultConfig())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if plans.TotalCost != cy.Plans.TotalCost {
		t.Fatalf("reloaded optimization cost %v != original %v", plans.TotalCost, cy.Plans.TotalCost)
	}
	full := cy.CSS.Space(0).Full()
	a, err := cy.Estimator.CardOf(0, full)
	if err != nil {
		t.Fatalf("original CardOf: %v", err)
	}
	b, err := est.CardOf(0, full)
	if err != nil {
		t.Fatalf("reloaded CardOf: %v", err)
	}
	if a != b {
		t.Fatalf("reloaded estimate %d != original %d", b, a)
	}
}

// TestOptimizeFromSavedPartialStore: a store missing required statistics
// (the shape of a partial save from a degraded or cancelled run) must not
// silently feed incomplete statistics to the estimator: the default mode
// fails with a typed MissingStatsError naming them, and AllowPartialStats
// proceeds with the affected blocks on their initial plans.
func TestOptimizeFromSavedPartialStore(t *testing.T) {
	g, cat, db := skewedRetail(t)
	cy, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := cy.SaveStats(&buf); err != nil {
		t.Fatalf("SaveStats: %v", err)
	}
	full, err := stats.ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadStore: %v", err)
	}
	// Drop every histogram: join cardinalities lose their derivation paths
	// while any directly-observed scalars survive.
	partial := stats.NewStore()
	kept := 0
	for _, v := range full.Values() {
		if v.Hist != nil {
			continue
		}
		if err := partial.Put(v); err != nil {
			t.Fatal(err)
		}
		kept++
	}
	if kept == full.Len() {
		t.Fatal("test store had no histograms to drop")
	}
	var pbuf bytes.Buffer
	if _, err := partial.WriteTo(&pbuf); err != nil {
		t.Fatal(err)
	}

	// Default mode: typed error naming the missing statistics.
	_, _, err = optimizeSaved(g, cat, bytes.NewReader(pbuf.Bytes()), DefaultConfig())
	var miss *MissingStatsError
	if !errors.As(err, &miss) {
		t.Fatalf("want *MissingStatsError, got %v", err)
	}
	if len(miss.Missing) == 0 || len(miss.Blocks) == 0 || len(miss.Labels) != len(miss.Missing) {
		t.Fatalf("error not fully populated: %+v", miss)
	}
	for _, s := range miss.Missing {
		if s.Kind != stats.Card {
			t.Fatalf("missing statistic %v is not a required cardinality", s.Key())
		}
	}
	if msg := miss.Error(); !strings.Contains(msg, "AllowPartialStats") || !strings.Contains(msg, "|") {
		t.Fatalf("message does not name statistics or the fallback: %q", msg)
	}

	// Fallback mode: the cycle completes with affected blocks on their
	// initial plans.
	cfg := DefaultConfig()
	cfg.AllowPartialStats = true
	_, plans, err := optimizeSaved(g, cat, bytes.NewReader(pbuf.Bytes()), cfg)
	if err != nil {
		t.Fatalf("AllowPartialStats mode: %v", err)
	}
	if len(plans.Fallbacks) == 0 {
		t.Fatal("no fallback blocks despite missing statistics")
	}
	for _, b := range plans.Fallbacks {
		blk := cy.Analysis.Blocks[b]
		p, ok := plans.Plans[b]
		if !ok || p.Tree.Render(blk) != blk.Initial.Render(blk) {
			t.Fatalf("fallback block %d not on its initial plan", b)
		}
	}
	if len(plans.Plans) != len(cy.Analysis.Blocks) {
		t.Fatalf("partial optimization returned %d plans for %d blocks", len(plans.Plans), len(cy.Analysis.Blocks))
	}

	// A complete store must keep working identically in both modes.
	for _, allow := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.AllowPartialStats = allow
		_, p2, err := optimizeSaved(g, cat, bytes.NewReader(buf.Bytes()), cfg)
		if err != nil {
			t.Fatalf("complete store, allow=%v: %v", allow, err)
		}
		if len(p2.Fallbacks) != 0 {
			t.Fatalf("complete store, allow=%v: unexpected fallbacks %v", allow, p2.Fallbacks)
		}
		if p2.TotalCost != cy.Plans.TotalCost {
			t.Fatalf("complete store, allow=%v: cost %v != %v", allow, p2.TotalCost, cy.Plans.TotalCost)
		}
	}
}

func TestDriftFromTriggersOnChange(t *testing.T) {
	g, cat, db := skewedRetail(t)
	cy1, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("cycle 1: %v", err)
	}
	// Same data: negligible drift.
	cy2, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("cycle 2: %v", err)
	}
	if d := cy2.DriftFrom(cy1); d.Exceeds(0.01) {
		t.Fatalf("same-data drift = %+v", d)
	}
	// Changed data: drift exceeds a reasonable threshold.
	db["Log"] = data.Generate(data.TableSpec{Rel: "Log", Card: 16000, Columns: []data.ColumnSpec{
		{Name: "lid", Domain: 40, Skew: 1.9},
	}}, 123)
	cy3, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("cycle 3: %v", err)
	}
	if d := cy3.DriftFrom(cy1); !d.Exceeds(0.2) {
		t.Fatalf("grown-data drift = %+v, expected above 0.2", d)
	}
}

// TestReportPlansInBlockOrder pins the report's determinism on a
// three-block workflow: its "## Plans" section lists the blocks in
// ascending order, so reports of one cycle differ in the phase timings
// alone.
func TestReportPlansInBlockOrder(t *testing.T) {
	w := suite.MustGet(8)
	cy, err := Run(w.Graph, w.Catalog, w.Data(0.002), DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var first string
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := cy.Report(&buf); err != nil {
			t.Fatalf("Report: %v", err)
		}
		var lines []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "- phase timings:") {
				lines = append(lines, line)
			}
		}
		out := strings.Join(lines, "\n")
		if i > 0 {
			if out != first {
				t.Fatalf("report %d differs from the first:\n%s\n---\n%s", i, out, first)
			}
			continue
		}
		first = out
		plans := out[strings.Index(out, "## Plans"):strings.Index(out, "overall improvement")]
		next := 0
		for _, line := range strings.Split(plans, "\n") {
			var bi int
			if _, err := fmt.Sscanf(line, "- block %d", &bi); err != nil {
				continue
			}
			if bi != next {
				t.Fatalf("plans list block %d where block %d belongs:\n%s", bi, next, plans)
			}
			next++
		}
		if next != len(cy.Analysis.Blocks) {
			t.Fatalf("plans list %d of %d blocks:\n%s", next, len(cy.Analysis.Blocks), plans)
		}
	}
}

func TestReportRendering(t *testing.T) {
	g, cat, db := skewedRetail(t)
	cy, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := cy.Report(&buf); err != nil {
		t.Fatalf("Report: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Optimization cycle", "## Statistics observed", "## Observed values",
		"## Plans", "## Derivations", "improvement:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
