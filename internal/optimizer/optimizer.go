// Package optimizer implements the final step of the paper's loop (Section
// 3.2.7): classical cost-based join-order optimization per optimizable
// block, driven by the cardinalities the estimation layer derives from the
// observed statistics. A plan costs C_out, the sum of its joins' output
// cardinalities. That is the engine's own work up to a per-block constant
// (every reordering shares the block's other operators), so with exact
// cardinalities the optimizer costs every alternative exactly, and the
// tree it picks runs the fewest rows — the property the whole
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

// CostModel is read by nothing.
//
// Deprecated: C_out is the only plan cost; the type and Cout stay only
// because bench/ passes them (ROADMAP item 4 removes both).
type CostModel int

// Cout is the only CostModel.
//
// Deprecated: see CostModel.
const Cout CostModel = 0

// Plan is an optimized plan for one block.
type Plan struct {
	Block int
	// Tree is the chosen join order (nil for join-free blocks).
	Tree *workflow.JoinTree
	// Cost is the plan's C_out: the summed estimated output cardinalities
	// of its joins.
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
// (1.0 = the initial plans were already optimal, or nothing was optimized).
// An optimized cost of 0 — every join of the chosen plans empty — divides
// as 1, so the ratio is the initial cost itself and stays finite.
func (r *Result) Improvement() float64 {
	if r == nil || r.TotalInitialCost == r.TotalCost {
		return 1
	}
	return r.TotalInitialCost / max(r.TotalCost, 1)
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
// the card source. The CostModel argument is ignored.
func OptimizeOpts(res *css.Result, cards CardSource, _ CostModel, opt Options) (*Result, error) {
	out := &Result{Plans: make(map[int]*Plan)}
	for bi, sp := range res.Spaces {
		blk := res.Analysis.Blocks[bi]
		p, err := optimizeBlock(bi, blk, sp, cards)
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

func optimizeBlock(bi int, blk *workflow.Block, sp *expr.Space, cards CardSource) (*Plan, error) {
	if blk.Initial == nil || blk.RejectPinned {
		// Join-free or pinned blocks admit exactly one plan.
		cost := 0.0
		if blk.Initial != nil {
			c, err := treeCost(bi, blk.Initial, cards)
			if err != nil {
				return nil, err
			}
			cost = c
		}
		return &Plan{Block: bi, Tree: blk.Initial, Cost: cost, InitialCost: cost}, nil
	}
	// The DP table is indexed by an SE's position in sp.SEs. Every SE's
	// cardinality is asked, leaves included, so a block whose statistics
	// cannot derive one falls back however cheap its plans would be.
	type entry struct {
		cost float64
		tree *workflow.JoinTree
	}
	best := make([]entry, len(sp.SEs))
	for i, se := range sp.SEs { // sorted by size: DP order
		card, err := cards.CardOf(bi, se)
		if err != nil {
			return nil, err
		}
		if se.Len() == 1 {
			best[i] = entry{cost: 0, tree: &workflow.JoinTree{Leaf: se.Lowest(), Join: -1}}
			continue
		}
		// Every plan of se pays the same output, so the subplans decide.
		cur := entry{cost: math.Inf(1)}
		for _, p := range sp.Plans[se] {
			li, okL := sp.IndexOf(p.Left)
			ri, okR := sp.IndexOf(p.Right)
			if !okL || !okR {
				continue
			}
			l, r := best[li], best[ri]
			// Strict < keeps the earliest enumerated plan on cost ties;
			// sp.Plans order is deterministic (SEs sorted, subset splits
			// ordered), so the chosen tree is stable across runs.
			if c := l.cost + r.cost; c < cur.cost {
				cur = entry{
					cost: c,
					tree: &workflow.JoinTree{Leaf: -1, Join: p.Edge, Left: l.tree, Right: r.tree},
				}
			}
		}
		if math.IsInf(cur.cost, 1) {
			return nil, fmt.Errorf("no plan for SE %s", se.Label(blk))
		}
		cur.cost += float64(card)
		best[i] = cur
	}
	fi, _ := sp.IndexOf(sp.Full())
	full := best[fi]
	initCost, err := treeCost(bi, blk.Initial, cards)
	if err != nil {
		return nil, err
	}
	return &Plan{Block: bi, Tree: full.tree, Cost: full.cost, InitialCost: initCost}, nil
}

// treeCost prices a concrete join tree by C_out. Its leaves cost nothing
// but are asked too, like the DP's.
func treeCost(bi int, t *workflow.JoinTree, cards CardSource) (float64, error) {
	card, err := cards.CardOf(bi, expr.NewSet(t.Inputs()...))
	if err != nil || t.IsLeaf() {
		return 0, err
	}
	l, err := treeCost(bi, t.Left, cards)
	if err != nil {
		return 0, err
	}
	r, err := treeCost(bi, t.Right, cards)
	if err != nil {
		return 0, err
	}
	return l + r + float64(card), nil
}
