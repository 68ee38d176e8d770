package engine

import (
	"fmt"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// view adapts an engine result to the shared comparison helpers.
func view(r *Result) *wftest.Result {
	return &wftest.Result{Sinks: r.Sinks, Materialized: r.Materialized, Rows: r.Rows, Observed: r.Observed}
}

// equalResults compares every externally visible part of two engine
// results: sinks, materialized side tables, observed statistics and the
// work metric. Row order within tables is not part of the contract.
func equalResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	wftest.NewGolden(view(want)).Diff(t, label, view(got))
}

func TestStreamMatchesBatchRetail(t *testing.T) {
	db, cat := tinyDB()
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	batch, err := New(an, db, nil).Run()
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	streamed, err := NewStream(an, db, nil).Run()
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	equalResults(t, "stream vs batch", batch, streamed)
}

func TestStreamMatchesBatchObservation(t *testing.T) {
	db, cat := tinyDB()
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Observe a representative mix: cards, histograms, distinct, chain
	// points, reject singleton, reject aux join.
	blk := an.Blocks[0]
	var o, p, c int
	for i, in := range blk.Inputs {
		switch in.SourceRel {
		case "Orders":
			o = i
		case "Product":
			p = i
		case "Customer":
			c = i
		}
	}
	f := -1
	for j, e := range blk.Joins {
		if e.LeftInput == o && e.RightInput == p || e.LeftInput == p && e.RightInput == o {
			f = j
		}
	}
	sp := res.Space(0)
	pid := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "pid"})
	cid := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "cid"})
	observe := []stats.Stat{
		stats.NewCard(stats.BlockSE(0, sp.Full())),
		stats.NewCard(stats.BlockSE(0, expr.NewSet(o, p))),
		stats.NewHist(stats.BlockSE(0, expr.NewSet(o, p)), cid),
		stats.NewHist(stats.BlockSE(0, expr.NewSet(o)), pid, cid),
		stats.NewDistinct(stats.BlockSE(0, expr.NewSet(c)), cid),
		stats.NewCard(stats.ChainPoint(0, o, 0)),
		stats.NewCard(stats.BlockRejectSE(0, expr.NewSet(o), o, f)),
		stats.NewHist(stats.BlockRejectSE(0, expr.NewSet(o), o, f), cid),
		stats.NewCard(stats.BlockRejectSE(0, expr.NewSet(o, c), o, f)),
	}
	batch, err := New(an, db, nil).RunObserved(res, observe)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	streamed, err := NewStream(an, db, nil).RunObserved(res, observe)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	equalResults(t, "stream vs batch", batch, streamed)
}

func TestStreamMatchesBatchRejectLinkAndOps(t *testing.T) {
	db, cat := tinyDB()
	b := workflow.NewBuilder("mixed")
	or := b.Source("Orders")
	fsel := b.Select(or, workflow.Predicate{Attr: workflow.Attr{Rel: "Orders", Col: "pid"}, Op: workflow.CmpLt, Const: 95})
	pr := b.Source("Product")
	j1 := b.RejectJoin(fsel, pr, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	g := b.GroupBy(j1, workflow.Attr{Rel: "Orders", Col: "cid"})
	cu := b.Source("Customer")
	j2 := b.Join(g, cu, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	x := b.Transform(j2, "bucket10", workflow.Attr{Rel: "X", Col: "bk"}, workflow.Attr{Rel: "Customer", Col: "region"})
	b.Sink(x, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	batch, err := New(an, db, nil).Run()
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	streamed, err := NewStream(an, db, nil).Run()
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(batch.Materialized) == 0 {
		t.Fatal("the reject link was not materialized")
	}
	// Sinks and the materialized reject links must match.
	equalResults(t, "stream vs batch", batch, streamed)
}

func TestStreamMatchesBatchAlternativePlan(t *testing.T) {
	db, cat := tinyDB()
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	blk := an.Blocks[0]
	var o, p, c, eOP, eOC int
	for i, in := range blk.Inputs {
		switch in.SourceRel {
		case "Orders":
			o = i
		case "Product":
			p = i
		case "Customer":
			c = i
		}
	}
	for j, e := range blk.Joins {
		if e.LeftAttr.Col == "pid" || e.RightAttr.Col == "pid" {
			eOP = j
		} else {
			eOC = j
		}
	}
	alt := &workflow.JoinTree{
		Leaf: -1, Join: eOP,
		Left: &workflow.JoinTree{
			Leaf: -1, Join: eOC,
			Left:  &workflow.JoinTree{Leaf: o, Join: -1},
			Right: &workflow.JoinTree{Leaf: c, Join: -1},
		},
		Right: &workflow.JoinTree{Leaf: p, Join: -1},
	}
	plans := map[int]*workflow.JoinTree{0: alt}
	batch, err := New(an, db, nil).RunPlans(plans, nil, nil)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	streamed, err := NewStream(an, db, nil).RunPlans(plans, nil, nil)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if batch.Sinks["dw"].Card() != streamed.Sinks["dw"].Card() {
		t.Fatalf("reordered plan: %d vs %d rows", batch.Sinks["dw"].Card(), streamed.Sinks["dw"].Card())
	}
}

func TestStreamMatchesBatchFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short mode")
	}
	for seed := int64(300); seed < 312; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, cat, db := wftest.Generate(seed, wftest.Options{MaxCard: 90})
			an, err := workflow.Analyze(g, cat)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			res, err := css.Generate(an, css.DefaultOptions())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			// Observe everything observable: the harshest comparison.
			observe := res.ObservableStats()
			batch, err := New(an, db, nil).RunObserved(res, observe)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			streamed, err := NewStream(an, db, nil).RunObserved(res, observe)
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			equalResults(t, "stream vs batch", batch, streamed)
		})
	}
}
