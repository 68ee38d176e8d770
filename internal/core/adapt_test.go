package core

import (
	"context"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// twoBlockSkewed builds a workflow whose analysis yields two blocks: block
// 0 joins Orders with Product and closes at a group-by boundary; block 1
// joins the boundary output with the huge Log first (the designed, bad
// order) although the tiny Region join would shrink it far more. orders
// sizes the Orders table, so two calls give two days of the same feed.
func twoBlockSkewed(t *testing.T, orders int64) (*workflow.Graph, *workflow.Catalog, engine.DB) {
	t.Helper()
	specs := []data.TableSpec{
		{Rel: "Orders", Card: orders, Columns: []data.ColumnSpec{
			{Name: "oid", Serial: true},
			{Name: "pid", Domain: 50, Skew: 1.1},
			{Name: "lid", Domain: 40, Skew: 1.5},
			{Name: "rid", Domain: 30, Skew: 1.3},
		}},
		{Rel: "Product", Card: 50, Columns: []data.ColumnSpec{
			{Name: "pid", Domain: 50},
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
		tbl := data.Generate(s, 57+int64(i))
		db[s.Rel] = tbl
		cat.Relations = append(cat.Relations, data.CatalogEntry(tbl, s))
	}
	b := workflow.NewBuilder("twoblock")
	o := b.Source("Orders")
	p := b.Source("Product")
	j0 := b.Join(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	gby := b.GroupBy(j0,
		workflow.Attr{Rel: "Orders", Col: "oid"},
		workflow.Attr{Rel: "Orders", Col: "lid"},
		workflow.Attr{Rel: "Orders", Col: "rid"})
	l := b.Source("Log")
	r := b.Source("Region")
	j1 := b.Join(gby, l, workflow.Attr{Rel: "Orders", Col: "lid"}, workflow.Attr{Rel: "Log", Col: "lid"})
	j2 := b.Join(j1, r, workflow.Attr{Rel: "Orders", Col: "rid"}, workflow.Attr{Rel: "Region", Col: "rid"})
	b.Sink(j2, "dw")
	return b.Graph(), cat, db
}

// TestAdaptiveReplanSplicesCone is the driver-level tentpole test: a
// plan optimized on yesterday's data meets today's grown Orders, the
// block-0 boundary refutes its estimate, and the mid-run replan
// re-optimizes only the pending cone, splices it in through the resume
// path, changes the sabotaged block's join tree back to the optimal one,
// and the spliced result is identical to a cold run of the final plans on
// today's data — with the work metric proving no completed block re-ran.
func TestAdaptiveReplanSplicesCone(t *testing.T) {
	g, cat, db := twoBlockSkewed(t, 3000)
	_, _, grown := twoBlockSkewed(t, 12000)
	cy, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(cy.Analysis.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(cy.Analysis.Blocks))
	}
	blk1 := cy.Analysis.Blocks[1]
	goodTree := cy.Plans.Plans[1].Tree.Render(blk1)
	if goodTree == blk1.Initial.Render(blk1) {
		t.Fatal("fixture broken: the optimizer kept block 1's designed order")
	}

	// Sabotage: schedule block 1 on its (bad) designed order, then run on
	// the grown data, whose block-0 actuals trip a replan at the first
	// boundary. The shadow re-optimization must restore the good tree
	// before block 1 runs.
	cy.Plans.Plans[1].Tree = blk1.Initial
	ar, err := cy.RunOptimizedAdaptiveCtx(context.Background(), grown, nil)
	if err != nil {
		t.Fatalf("RunOptimizedAdaptiveCtx: %v", err)
	}
	if len(ar.Replans) != 1 {
		t.Fatalf("replans = %d, want exactly 1:\n%s", len(ar.Replans), ar.Summary())
	}
	rec := ar.Replans[0]
	if rec.AtBlock != 0 || rec.Trigger.Block != 0 {
		t.Fatalf("replan tripped at block %d (trigger block %d), want the block-0 boundary", rec.AtBlock, rec.Trigger.Block)
	}
	if len(rec.Reoptimized) != 1 || rec.Reoptimized[0] != 1 {
		t.Fatalf("reoptimized %v, want only the pending cone [1]", rec.Reoptimized)
	}
	if len(rec.Changed) != 1 || rec.Changed[0] != 1 {
		t.Fatalf("changed %v, want [1]", rec.Changed)
	}
	if got := ar.Plans[1].Render(blk1); got != goodTree {
		t.Fatalf("spliced tree:\n%s\nwant the optimal tree:\n%s", got, goodTree)
	}
	if ar.Checks == 0 {
		t.Fatal("no boundary checks recorded")
	}

	// The spliced run must be identical to a cold run of the final plans
	// on the same data.
	cold, err := engine.New(cy.Analysis, grown, nil).RunPlansCtx(context.Background(), ar.Plans, cy.CSS, cy.Selection.Observe)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if a, c := ar.Run.Sinks["dw"].Card(), cold.Sinks["dw"].Card(); a != c {
		t.Fatalf("spliced sink %d rows, cold %d", a, c)
	}
	if ar.Run.Rows != cold.Rows {
		t.Fatalf("spliced work %d rows, cold %d — a completed block re-ran or the cone double-executed", ar.Run.Rows, cold.Rows)
	}
	for _, v := range cold.Observed.Values() {
		if !ar.Run.Observed.Has(v.Stat) {
			t.Fatalf("spliced store missing %v", v.Stat.Key())
		}
	}

	sum := ar.Summary()
	if !strings.Contains(sum, "1 replan(s)") || !strings.Contains(sum, "replan 1 after block 0") {
		t.Fatalf("summary not deterministic or incomplete:\n%s", sum)
	}
	if cy.Optimized != ar.Run {
		t.Fatal("cycle did not record the adaptive run")
	}
}

// TestAdaptiveNoReplanOnAccurateEstimates: run on the data it was planned
// from, the plan-time estimates are exact, so no boundary check may trip —
// the adaptive machinery must be inert on accurate plans.
func TestAdaptiveNoReplanOnAccurateEstimates(t *testing.T) {
	g, cat, db := twoBlockSkewed(t, 3000)
	cy, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ar, err := cy.RunOptimizedAdaptiveCtx(context.Background(), db, nil)
	if err != nil {
		t.Fatalf("RunOptimizedAdaptiveCtx: %v", err)
	}
	if len(ar.Replans) != 0 {
		t.Fatalf("accurate estimates replanned: %+v", ar.Replans)
	}
	if ar.Checks == 0 {
		t.Fatal("no boundary checks ran")
	}
	opt, err := engine.New(cy.Analysis, db, nil).RunPlans(cy.Plans.Trees(), nil, nil)
	if err != nil {
		t.Fatalf("plain optimized run: %v", err)
	}
	if ar.Run.Sinks["dw"].Card() != opt.Sinks["dw"].Card() {
		t.Fatalf("adaptive-off-path sink %d rows, plain %d", ar.Run.Sinks["dw"].Card(), opt.Sinks["dw"].Card())
	}
	if !strings.Contains(ar.Summary(), "0 replan(s)") {
		t.Fatalf("summary = %q", ar.Summary())
	}
}

// TestAdaptiveMaxReplansCap drives wf08 from yesterday's scale to eight
// times it, a drift that trips a replan at both of its boundaries: the
// default cap lets both through, a cap of one stops after the first.
func TestAdaptiveMaxReplansCap(t *testing.T) {
	w := suite.MustGet(8)
	today := w.Data(0.008)
	defer func(old int) { maxReplans = old }(maxReplans)
	for _, tc := range []struct{ limit, want int }{{maxReplans, 2}, {1, 1}} {
		maxReplans = tc.limit
		cy, err := Run(w.Graph, w.Catalog, w.Data(0.001), DefaultConfig())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		ar, err := cy.RunOptimizedAdaptiveCtx(context.Background(), today, nil)
		if err != nil {
			t.Fatalf("RunOptimizedAdaptiveCtx: %v", err)
		}
		if len(ar.Replans) != tc.want {
			t.Errorf("cap %d: replans = %d, want %d:\n%s", tc.limit, len(ar.Replans), tc.want, ar.Summary())
		}
	}
}
