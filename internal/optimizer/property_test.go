package optimizer

import (
	"fmt"
	"math"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// maxEnumerated is the widest block whose join trees are all executed.
const maxEnumerated = 5

// TestDPOptimalAgainstEnumerationFuzz holds the dynamic program to
// exhaustive plan enumeration and C_out to the engine's work. On generated
// workflows (seeds 0–219) and on every suite workflow that finishes at
// scale 0.002, with cardinalities learned from one instrumented run, every
// join tree of every block with at most maxEnumerated inputs is priced and
// executed with the block's other trees initial, and:
//   - the DP's cost is the minimum over every tree;
//   - identity: Rows(T) − Rows(initial) == Cost(T) − InitialCost, since a
//     block's reorderings share all its other operators;
//   - argmin: the DP's pick runs the fewest rows.
//
// wf04, the foreign-key star, is exempt: its data breaks referential
// integrity below scale 1, so the FK rule's cardinalities are not the
// data's (ROADMAP item 1). The test asserts it still breaks, so making its
// estimates exact (item 1(a)) forces the exemption out.
func TestDPOptimalAgainstEnumerationFuzz(t *testing.T) {
	for seed := int64(0); seed < 220; seed++ {
		g, cat, db := wftest.Generate(seed, wftest.Options{MaxRelations: maxEnumerated, MaxCard: 60})
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if broken := checkCostIsWork(t, g, cat, db); broken != "" {
				t.Error(broken)
			}
		})
	}
	for _, w := range suite.All() {
		switch w.ID {
		case 10, 16, 24: // their joins explode at this scale
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			broken := checkCostIsWork(t, w.Graph, w.Catalog, w.Data(0.002))
			switch {
			case w.ID == 4 && broken == "":
				t.Error("wf04 now prices its plans exactly: drop its exemption")
			case w.ID == 4:
				t.Logf("exempt (ROADMAP item 1): %s", broken)
			case broken != "":
				t.Error(broken)
			}
		})
	}
}

// learn plans the workflow, observes its greedy selection in one
// instrumented run of the initial plan and optimizes from what it learned.
func learn(t *testing.T, g *workflow.Graph, cat *workflow.Catalog, db engine.DB) (*css.Result, *estimate.Estimator, *Result) {
	t.Helper()
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	u, err := selector.NewUniverseOpts(res, costmodel.NewMemoryCoster(res, an.Cat), selector.UniverseOptions{})
	if err != nil {
		t.Fatalf("NewUniverseOpts: %v", err)
	}
	sel, err := selector.SelectUniverse(u, selector.Options{Method: selector.MethodGreedy})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	run, err := engine.New(an, db, nil).RunPlans(nil, res, sel.Observe)
	if err != nil {
		t.Fatalf("RunPlans: %v", err)
	}
	est := estimate.New(res, run.Observed)
	out, err := OptimizeOpts(res, est, Cout, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return res, est, out
}

// checkCostIsWork learns the workflow's cardinalities, then prices and
// executes every tree of each enumerable block. It fails t on a DP that
// misses the enumeration's minimum, and describes the first tree that
// breaks the identity or the argmin ("" when none does).
func checkCostIsWork(t *testing.T, g *workflow.Graph, cat *workflow.Catalog, db engine.DB) string {
	t.Helper()
	res, est, out := learn(t, g, cat, db)
	an := res.Analysis
	eng := engine.New(an, db, nil)
	rowsOf := func(bi int, tree *workflow.JoinTree) int64 {
		r, err := eng.RunPlans(map[int]*workflow.JoinTree{bi: tree}, nil, nil)
		if err != nil {
			t.Fatalf("block %d: run %s: %v", bi, tree, err)
		}
		return r.Rows
	}
	initRows := rowsOf(0, nil)
	broken := ""
	for bi, sp := range res.Spaces {
		blk := an.Blocks[bi]
		if blk.Initial == nil || blk.RejectPinned || len(blk.Inputs) > maxEnumerated {
			continue
		}
		p := out.Plans[bi]
		minCost, minRows := math.Inf(1), int64(math.MaxInt64)
		for _, tree := range enumerate(sp) {
			cost, err := treeCost(bi, tree, est)
			if err != nil {
				t.Fatalf("block %d: treeCost: %v", bi, err)
			}
			rows := rowsOf(bi, tree)
			minCost, minRows = min(minCost, cost), min(minRows, rows)
			if broken == "" && float64(rows-initRows) != cost-p.InitialCost {
				broken = fmt.Sprintf("block %d: %s runs %d rows against %d initial, but costs %v against %v",
					bi, tree.Render(blk), rows, initRows, cost, p.InitialCost)
			}
		}
		if minCost != p.Cost {
			t.Errorf("block %d: DP cost %v, enumeration min %v", bi, p.Cost, minCost)
		}
		if pickRows := rowsOf(bi, p.Tree); broken == "" && pickRows != minRows {
			broken = fmt.Sprintf("block %d: the DP's pick %s runs %d rows, the fewest any tree runs is %d",
				bi, p.Tree.Render(blk), pickRows, minRows)
		}
	}
	return broken
}

// enumerate builds every join tree over the block's plan space.
func enumerate(sp *expr.Space) []*workflow.JoinTree {
	memo := make(map[expr.Set][]*workflow.JoinTree)
	var trees func(se expr.Set) []*workflow.JoinTree
	trees = func(se expr.Set) []*workflow.JoinTree {
		if ts, ok := memo[se]; ok {
			return ts
		}
		var out []*workflow.JoinTree
		if se.Len() == 1 {
			out = []*workflow.JoinTree{{Leaf: se.Lowest(), Join: -1}}
		}
		for _, p := range sp.Plans[se] {
			for _, lt := range trees(p.Left) {
				for _, rt := range trees(p.Right) {
					out = append(out, &workflow.JoinTree{Leaf: -1, Join: p.Edge, Left: lt, Right: rt})
				}
			}
		}
		memo[se] = out
		return out
	}
	return trees(sp.Full())
}
