// Package optimizer implements the final step of the paper's loop (Section
// 3.2.7): classical cost-based join-order optimization per optimizable
// block, driven by the cardinalities the estimation layer derives from the
// observed statistics. Because the derived cardinalities are exact, the
// optimizer costs every alternative plan exactly — the property the whole
// statistics-selection framework exists to establish.
package optimizer

import (
	"fmt"
	"math"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// CardSource supplies SE cardinalities; package estimate's Estimator
// satisfies it.
type CardSource interface {
	CardOf(block int, se expr.Set) (int64, error)
}

// CostModel prices a join given input and output cardinalities.
type CostModel int

// Supported cost models.
const (
	// Cout sums the cardinalities of all intermediate results — the
	// classical C_out metric, which isolates join-order quality from
	// physical details.
	Cout CostModel = iota
	// HashJoin prices each join as build + probe + output
	// (|build| + |probe| + |out|), a closer proxy for a batch ETL engine.
	HashJoin
)

// Plan is an optimized plan for one block.
type Plan struct {
	Block int
	// Tree is the chosen join order (nil for join-free blocks).
	Tree *workflow.JoinTree
	// Cost is the plan's estimated cost under the chosen model.
	Cost float64
	// InitialCost is the user-designed plan's cost, for comparison.
	InitialCost float64
}

// Result is the optimization outcome for a whole workflow.
type Result struct {
	Plans map[int]*Plan
	// TotalCost and TotalInitialCost aggregate across blocks.
	TotalCost, TotalInitialCost float64
	// Fallbacks lists the blocks (ascending) left on their initial plans
	// because their cardinalities could not be derived — the degraded-run
	// outcome when observation failures leave SEs uncovered and
	// Options.FallbackInitial is set. Their cost contribution is zero on
	// both sides (unknown, not free).
	Fallbacks []int
}

// Trees returns the per-block join trees in the shape engine.RunPlans
// expects.
func (r *Result) Trees() map[int]*workflow.JoinTree {
	out := make(map[int]*workflow.JoinTree, len(r.Plans))
	for b, p := range r.Plans {
		out[b] = p.Tree
	}
	return out
}

// Improvement returns the ratio of initial plan cost to optimized plan cost
// under the cost model the plans were priced with (1.0 = the initial plans
// were already optimal, or nothing was optimized).
func (r *Result) Improvement() float64 {
	if r == nil || r.TotalCost == 0 {
		return 1
	}
	return r.TotalInitialCost / r.TotalCost
}

// Options tune the optimizer's plan space.
type Options struct {
	// FallbackInitial keeps a block on its user-designed initial plan
	// instead of failing the whole optimization when its cardinalities
	// cannot be derived (statistics lost to observation failures). Fallback
	// blocks are reported in Result.Fallbacks.
	FallbackInitial bool
}

// OptimizeOpts chooses the cheapest join order for every block by dynamic
// programming over connected sub-expressions (the same plan space the CSS
// generation enumerated), costing each composition with cardinalities from
// the card source.
func OptimizeOpts(res *css.Result, cards CardSource, model CostModel, opt Options) (*Result, error) {
	out := &Result{Plans: make(map[int]*Plan)}
	for bi, sp := range res.Spaces {
		blk := res.Analysis.Blocks[bi]
		p, err := optimizeBlock(bi, blk, sp, cards, model, opt)
		if err != nil {
			if !opt.FallbackInitial {
				return nil, fmt.Errorf("block %d: %w", bi, err)
			}
			p = &Plan{Block: bi, Tree: blk.Initial}
			out.Fallbacks = append(out.Fallbacks, bi)
		}
		out.Plans[bi] = p
		out.TotalCost += p.Cost
		out.TotalInitialCost += p.InitialCost
	}
	return out, nil
}

func optimizeBlock(bi int, blk *workflow.Block, sp *expr.Space, cards CardSource, model CostModel, opt Options) (*Plan, error) {
	if blk.Initial == nil || blk.RejectPinned {
		// Join-free or pinned blocks admit exactly one plan.
		cost := 0.0
		if blk.Initial != nil {
			c, err := treeCost(bi, blk, sp, blk.Initial, cards, model)
			if err != nil {
				return nil, err
			}
			cost = c
		}
		return &Plan{Block: bi, Tree: blk.Initial, Cost: cost, InitialCost: cost}, nil
	}
	// Everything below is indexed by an SE's position in sp.SEs: the DP
	// table, and the cardinalities, each asked of the card source once.
	cardOf := make([]float64, len(sp.SEs))
	known := make([]bool, len(sp.SEs))
	card := func(i int) (float64, error) {
		if !known[i] {
			c, err := cards.CardOf(bi, sp.SEs[i])
			if err != nil {
				return 0, err
			}
			cardOf[i], known[i] = float64(c), true
		}
		return cardOf[i], nil
	}
	type entry struct {
		cost float64
		tree *workflow.JoinTree
	}
	best := make([]entry, len(sp.SEs))
	for i, se := range sp.SEs { // sorted by size: DP order
		if se.Len() == 1 {
			best[i] = entry{cost: 0, tree: &workflow.JoinTree{Leaf: se.Lowest(), Join: -1}}
			continue
		}
		cur := entry{cost: math.Inf(1)}
		outCard, err := card(i)
		if err != nil {
			return nil, err
		}
		for _, p := range sp.Plans[se] {
			li, okL := sp.IndexOf(p.Left)
			ri, okR := sp.IndexOf(p.Right)
			if !okL || !okR {
				continue
			}
			l, r := best[li], best[ri]
			lCard, err := card(li)
			if err != nil {
				return nil, err
			}
			rCard, err := card(ri)
			if err != nil {
				return nil, err
			}
			c := l.cost + r.cost + joinCost(model, lCard, rCard, outCard)
			// Strict < keeps the earliest enumerated plan on cost ties;
			// sp.Plans order is deterministic (SEs sorted, subset splits
			// ordered), so the chosen tree is stable across runs.
			if c < cur.cost {
				cur = entry{
					cost: c,
					tree: &workflow.JoinTree{Leaf: -1, Join: p.Edge, Left: l.tree, Right: r.tree},
				}
			}
		}
		if math.IsInf(cur.cost, 1) {
			return nil, fmt.Errorf("no plan for SE %s", se.Label(blk))
		}
		best[i] = cur
	}
	fi, _ := sp.IndexOf(sp.Full())
	full := best[fi]
	initCost, err := treeCost(bi, blk, sp, blk.Initial, cards, model)
	if err != nil {
		return nil, err
	}
	return &Plan{Block: bi, Tree: full.tree, Cost: full.cost, InitialCost: initCost}, nil
}

// treeCost prices a concrete join tree.
func treeCost(bi int, blk *workflow.Block, sp *expr.Space, t *workflow.JoinTree, cards CardSource, model CostModel) (float64, error) {
	if t == nil || t.IsLeaf() {
		return 0, nil
	}
	lc, err := treeCost(bi, blk, sp, t.Left, cards, model)
	if err != nil {
		return 0, err
	}
	rc, err := treeCost(bi, blk, sp, t.Right, cards, model)
	if err != nil {
		return 0, err
	}
	lSet := expr.NewSet(t.Left.Inputs()...)
	rSet := expr.NewSet(t.Right.Inputs()...)
	lCard, err := cards.CardOf(bi, lSet)
	if err != nil {
		return 0, err
	}
	rCard, err := cards.CardOf(bi, rSet)
	if err != nil {
		return 0, err
	}
	oCard, err := cards.CardOf(bi, lSet.Union(rSet))
	if err != nil {
		return 0, err
	}
	return lc + rc + joinCost(model, float64(lCard), float64(rCard), float64(oCard)), nil
}

func joinCost(model CostModel, left, right, out float64) float64 {
	switch model {
	case HashJoin:
		build := math.Min(left, right)
		probe := math.Max(left, right)
		return build*1.5 + probe + out
	default: // Cout
		return out
	}
}
