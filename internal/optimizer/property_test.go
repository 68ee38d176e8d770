package optimizer

import (
	"fmt"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestDPOptimalAgainstEnumerationFuzz verifies the dynamic program against
// exhaustive plan enumeration: on random workflows with exact learned
// cardinalities, the DP's chosen cost must match the minimum over every
// valid join tree, for both cost models.
func TestDPOptimalAgainstEnumerationFuzz(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, cat, db := wftest.Generate(seed, wftest.Options{MaxRelations: 4})
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
			for _, model := range []CostModel{Cout, HashJoin} {
				out, err := OptimizeOpts(res, est, model, Options{})
				if err != nil {
					t.Fatalf("Optimize: %v", err)
				}
				for bi, sp := range res.Spaces {
					blk := an.Blocks[bi]
					if blk.Initial == nil || blk.RejectPinned {
						continue
					}
					best, count := enumerateMin(t, bi, blk, sp, est, model)
					got := out.Plans[bi].Cost
					if diff := got - best; diff > 1e-6 || diff < -1e-6 {
						t.Errorf("block %d model %v: DP cost %v, enumeration min %v over %d trees",
							bi, model, got, best, count)
					}
				}
			}
		})
	}
}

// enumerateMin exhaustively builds every join tree over the block's plan
// space and returns the minimum cost.
func enumerateMin(t *testing.T, bi int, blk *workflow.Block, sp *expr.Space, est *estimate.Estimator, model CostModel) (float64, int) {
	t.Helper()
	var trees func(se expr.Set) []*workflow.JoinTree
	memo := make(map[expr.Set][]*workflow.JoinTree)
	trees = func(se expr.Set) []*workflow.JoinTree {
		if ts, ok := memo[se]; ok {
			return ts
		}
		var out []*workflow.JoinTree
		if se.Len() == 1 {
			out = []*workflow.JoinTree{{Leaf: se.Lowest(), Join: -1}}
		} else {
			for _, p := range sp.Plans[se] {
				for _, lt := range trees(p.Left) {
					for _, rt := range trees(p.Right) {
						out = append(out, &workflow.JoinTree{Leaf: -1, Join: p.Edge, Left: lt, Right: rt})
					}
				}
			}
		}
		memo[se] = out
		return out
	}
	all := trees(sp.Full())
	if len(all) == 0 {
		t.Fatalf("block %d: no trees enumerated", bi)
	}
	best := -1.0
	for _, tree := range all {
		c, err := treeCost(bi, blk, sp, tree, est, model)
		if err != nil {
			t.Fatalf("treeCost: %v", err)
		}
		if best < 0 || c < best {
			best = c
		}
	}
	return best, len(all)
}
