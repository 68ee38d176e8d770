package optimizer

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// fixedCards is a CardSource with hand-set cardinalities.
type fixedCards map[expr.Set]int64

func (f fixedCards) CardOf(block int, se expr.Set) (int64, error) {
	if block != 0 {
		return 1, nil
	}
	if v, ok := f[se]; ok {
		return v, nil
	}
	return 1, nil
}

// chain3 builds O-P-C with the initial (bad) plan (O⋈P)⋈C.
func chain3(t *testing.T) *css.Result {
	t.Helper()
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "O", Card: 1000, Columns: []workflow.Column{{Name: "p", Domain: 10}, {Name: "c", Domain: 10}}},
		{Name: "P", Card: 100, Columns: []workflow.Column{{Name: "p", Domain: 10}}},
		{Name: "C", Card: 100, Columns: []workflow.Column{{Name: "c", Domain: 10}}},
	}}
	b := workflow.NewBuilder("chain3")
	o := b.Source("O")
	p := b.Source("P")
	c := b.Source("C")
	j1 := b.Join(o, p, workflow.Attr{Rel: "O", Col: "p"}, workflow.Attr{Rel: "P", Col: "p"})
	j2 := b.Join(j1, c, workflow.Attr{Rel: "O", Col: "c"}, workflow.Attr{Rel: "C", Col: "c"})
	b.Sink(j2, "dw")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return res
}

func TestOptimizePicksCheaperOrder(t *testing.T) {
	res := chain3(t)
	blk := res.Analysis.Blocks[0]
	var oI, pI, cI int
	for i, in := range blk.Inputs {
		switch in.SourceRel {
		case "O":
			oI = i
		case "P":
			pI = i
		case "C":
			cI = i
		}
	}
	full := res.Space(0).Full()
	// O⋈P is huge (100000), O⋈C tiny (10): the optimizer must flip.
	cards := fixedCards{
		expr.NewSet(oI):     1000,
		expr.NewSet(pI):     100,
		expr.NewSet(cI):     100,
		expr.NewSet(oI, pI): 100000,
		expr.NewSet(oI, cI): 10,
		full:                10,
	}
	out, err := OptimizeOpts(res, cards, Cout, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	p := out.Plans[0]
	if p.Cost >= p.InitialCost {
		t.Fatalf("optimized cost %v not better than initial %v", p.Cost, p.InitialCost)
	}
	if p.Cost != 10+10 { // |OC| + |OPC| under Cout
		t.Fatalf("optimized cost = %v, want 20", p.Cost)
	}
	// The chosen tree joins O with C first.
	firstJoin := p.Tree
	for !firstJoin.Left.IsLeaf() {
		firstJoin = firstJoin.Left
	}
	lSet := expr.NewSet(p.Tree.Left.Inputs()...)
	if lSet != expr.NewSet(oI, cI) && lSet != expr.NewSet(pI) {
		t.Logf("tree: %s", p.Tree.Render(blk))
	}
	inner := expr.NewSet(firstJoin.Inputs()...)
	_ = inner
}

func TestOptimizeInitialAlreadyBest(t *testing.T) {
	res := chain3(t)
	blk := res.Analysis.Blocks[0]
	var oI, pI, cI int
	for i, in := range blk.Inputs {
		switch in.SourceRel {
		case "O":
			oI = i
		case "P":
			pI = i
		case "C":
			cI = i
		}
	}
	cards := fixedCards{
		expr.NewSet(oI):     1000,
		expr.NewSet(pI):     100,
		expr.NewSet(cI):     100,
		expr.NewSet(oI, pI): 10,
		expr.NewSet(oI, cI): 100000,
		res.Space(0).Full(): 10,
	}
	out, err := OptimizeOpts(res, cards, Cout, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	p := out.Plans[0]
	if p.Cost != p.InitialCost {
		t.Fatalf("initial plan is optimal; cost %v vs initial %v", p.Cost, p.InitialCost)
	}
}

// TestOptimizeDeterministicUnderTies forces every plan of the block to
// cost exactly the same (all cardinalities 1) and checks that repeated
// optimization returns the identical tree — the tie must break on plan
// enumeration order, not on map iteration or other incidental state.
func TestOptimizeDeterministicUnderTies(t *testing.T) {
	res := chain3(t)
	cards := fixedCards{} // every SE defaults to card 1: all plans tie
	var prev string
	for trial := 0; trial < 5; trial++ {
		out, err := OptimizeOpts(res, cards, Cout, Options{})
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		got := out.Plans[0].Tree.String()
		if trial == 0 {
			prev = got
			continue
		}
		if got != prev {
			t.Fatalf("trial %d picked %s, first trial picked %s", trial, got, prev)
		}
	}
}

func TestOptimizeRejectPinnedBlock(t *testing.T) {
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "A", Card: 10, Columns: []workflow.Column{{Name: "k", Domain: 5}}},
		{Name: "B", Card: 10, Columns: []workflow.Column{{Name: "k", Domain: 5}}},
	}}
	b := workflow.NewBuilder("pinned")
	a := b.Source("A")
	bb := b.Source("B")
	j := b.RejectJoin(a, bb, workflow.Attr{Rel: "A", Col: "k"}, workflow.Attr{Rel: "B", Col: "k"})
	b.Sink(j, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	out, err := OptimizeOpts(res, fixedCards{}, Cout, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	p := out.Plans[0]
	if p.Tree != an.Blocks[0].Initial {
		t.Fatal("pinned block must keep its initial tree")
	}
}

// TestImprovementOfAnEmptyPlan pins Improvement where the optimized plans
// cost 0: at scale 0.002 wf17's reordered joins all come out empty (C_out
// 6,086 → 0), and the ratio is the initial cost itself, where it used to
// read 1. Wherever the optimized cost is at least 1 it is the plain ratio.
func TestImprovementOfAnEmptyPlan(t *testing.T) {
	w := suite.MustGet(17)
	_, _, out := learn(t, w.Graph, w.Catalog, w.Data(0.002))
	if out.TotalInitialCost != 6086 || out.TotalCost != 0 || out.Improvement() != 6086 {
		t.Errorf("wf17: cost %v → %v, improvement %v; want 6086 → 0, 6086",
			out.TotalInitialCost, out.TotalCost, out.Improvement())
	}
	for _, c := range []struct{ initial, optimized, want float64 }{
		{0, 0, 1}, {7, 7, 1}, {10, 4, 2.5}, {3, 1, 3},
	} {
		r := &Result{TotalInitialCost: c.initial, TotalCost: c.optimized}
		if got := r.Improvement(); got != c.want {
			t.Errorf("Improvement(%v → %v) = %v, want %v", c.initial, c.optimized, got, c.want)
		}
	}
}
