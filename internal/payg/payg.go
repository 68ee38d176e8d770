// Package payg implements the comparison baseline of Section 7.3: the
// pay-as-you-go / trivial-CSS-only strategy of Chaudhuri et al., which
// observes nothing but cardinality counters and therefore needs repeated
// executions under re-ordered plans until every sub-expression has appeared
// in some plan. The package computes the paper's lower-bound formula
// ⌈(2ⁿ−(n+2))/(n−2)⌉, a semantics-aware lower bound over the actual
// connected SEs, and a concrete greedy sequence of plan re-orderings whose
// length upper-bounds the executions needed (the "found" series of
// Figure 12).
package payg

import (
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// formulaMinExecutions is the paper's semantics-free lower bound for an
// n-way join: every plan exposes n−2 coverable SEs while 2ⁿ−(n+2) SEs need
// covering. Blocks with fewer than three inputs need exactly one execution.
func formulaMinExecutions(n int) int {
	if n < 3 {
		return 1
	}
	need := (1 << uint(n)) - (n + 2)
	per := n - 2
	return (need + per - 1) / per
}

// BlockReport is the baseline analysis of one optimizable block.
type BlockReport struct {
	Block int
	// Inputs is the join width n.
	Inputs int
	// FormulaLB is the paper's ⌈(2ⁿ−(n+2))/(n−2)⌉ bound.
	FormulaLB int
	// SemanticLB is the same bound computed over the actual connected SEs
	// (cross products excluded): ⌈#coverable/(n−2)⌉.
	SemanticLB int
	// Found is the length of the concrete plan sequence the greedy cover
	// produced; it upper-bounds the executions needed.
	Found int
	// Plans is the discovered sequence of join orders.
	Plans []*workflow.JoinTree
}

// Report is the baseline analysis of a workflow. Because every execution
// runs all blocks and each block's plan can be varied independently, the
// workflow-level execution count is the maximum over blocks.
type Report struct {
	PerBlock []BlockReport
	// FormulaLB, SemanticLB and Found are the workflow-level counts (max
	// over blocks, minimum 1).
	FormulaLB, SemanticLB, Found int
}

// Evaluate runs the baseline analysis over all blocks of a generated CSS
// result.
func Evaluate(res *css.Result) *Report {
	rep := &Report{FormulaLB: 1, SemanticLB: 1, Found: 1}
	for bi, sp := range res.Spaces {
		blk := res.Analysis.Blocks[bi]
		br := evaluateBlock(bi, blk, sp)
		rep.PerBlock = append(rep.PerBlock, br)
		if br.FormulaLB > rep.FormulaLB {
			rep.FormulaLB = br.FormulaLB
		}
		if br.SemanticLB > rep.SemanticLB {
			rep.SemanticLB = br.SemanticLB
		}
		if br.Found > rep.Found {
			rep.Found = br.Found
		}
	}
	return rep
}

func evaluateBlock(bi int, blk *workflow.Block, sp *expr.Space) BlockReport {
	n := blk.NumInputs()
	br := BlockReport{Block: bi, Inputs: n, FormulaLB: formulaMinExecutions(n)}
	if n < 3 || blk.RejectPinned {
		// One plan exists; a single execution observes everything a plan
		// can expose.
		br.FormulaLB, br.SemanticLB, br.Found = 1, 1, 1
		if blk.Initial != nil {
			br.Plans = []*workflow.JoinTree{blk.Initial}
		}
		return br
	}
	// SEs needing coverage: everything except the base inputs and the full
	// SE (both are exposed by every plan).
	toCover := make(map[expr.Set]bool)
	for _, se := range sp.SEs {
		if se.Len() >= 2 && se != sp.Full() {
			toCover[se] = true
		}
	}
	per := n - 2
	br.SemanticLB = (len(toCover) + per - 1) / per

	// Greedy cover by left-deep plans: each round builds the join order
	// that exposes the most still-uncovered SEs as prefixes.
	uncovered := toCover
	for len(uncovered) > 0 {
		order := bestOrder(blk, sp, uncovered)
		tree := leftDeep(blk, order)
		br.Plans = append(br.Plans, tree)
		br.Found++
		cur := expr.NewSet(order[0])
		for _, i := range order[1:] {
			cur = cur.Add(i)
			delete(uncovered, cur)
		}
		if br.Found > 4096 {
			break // defensive: cannot happen, every round covers ≥1
		}
	}
	if br.Found == 0 {
		br.Found = 1
		br.Plans = []*workflow.JoinTree{blk.Initial}
	}
	return br
}

// bestOrder builds a connected input order greedily preferring extensions
// whose prefix SE is still uncovered, seeded from every uncovered SE and
// every input, keeping the order that covers the most.
func bestOrder(blk *workflow.Block, sp *expr.Space, uncovered map[expr.Set]bool) []int {
	n := blk.NumInputs()
	var best []int
	bestGain := -1
	trySeed := func(seed expr.Set) {
		order := ConnectOrder(blk, seed.Members())
		if order == nil {
			return // seed not connected (cannot happen for SEs)
		}
		order = extendOrder(blk, sp, order, uncovered)
		gain := 0
		cur := expr.NewSet(order[0])
		seen := make(map[expr.Set]bool)
		for _, i := range order[1:] {
			cur = cur.Add(i)
			if uncovered[cur] && !seen[cur] {
				seen[cur] = true
				gain++
			}
		}
		if gain > bestGain {
			bestGain = gain
			best = order
		}
	}
	// Seed with each uncovered SE (smallest first exposes long suffixes).
	for _, se := range sp.SEs {
		if uncovered[se] {
			trySeed(se)
		}
	}
	if best == nil {
		for i := 0; i < n; i++ {
			trySeed(expr.NewSet(i))
		}
	}
	return best
}

// ConnectOrder reorders candidates so every prefix is connected in the
// block's join graph, keeping the first element first and otherwise taking
// the earliest candidate that joins what is already placed; nil when the
// candidates are empty or not connected. The schedule package builds its
// observation orders with it too.
func ConnectOrder(blk *workflow.Block, candidates []int) []int {
	if len(candidates) == 0 {
		return nil
	}
	remaining := append([]int(nil), candidates[1:]...)
	order := []int{candidates[0]}
	in := expr.NewSet(candidates[0])
	for len(remaining) > 0 {
		found := -1
		for idx, c := range remaining {
			if edgeBetween(blk, in, c) {
				found = idx
				break
			}
		}
		if found < 0 {
			return nil
		}
		c := remaining[found]
		remaining = append(remaining[:found], remaining[found+1:]...)
		order = append(order, c)
		in = in.Add(c)
	}
	return order
}

// extendOrder grows a connected order to all inputs, preferring next inputs
// whose resulting prefix SE is uncovered.
func extendOrder(blk *workflow.Block, sp *expr.Space, order []int, uncovered map[expr.Set]bool) []int {
	n := blk.NumInputs()
	in := expr.NewSet(order...)
	for len(order) < n {
		next := -1
		for i := 0; i < n; i++ { // first pass: uncovered extension
			if in.Has(i) || !edgeBetween(blk, in, i) {
				continue
			}
			if uncovered[in.Add(i)] {
				next = i
				break
			}
		}
		if next < 0 {
			for i := 0; i < n; i++ { // fallback: any connected extension
				if !in.Has(i) && edgeBetween(blk, in, i) {
					next = i
					break
				}
			}
		}
		if next < 0 {
			break // disconnected remainder (cannot happen: block is connected)
		}
		order = append(order, next)
		in = in.Add(next)
	}
	return order
}

// edgeBetween reports whether a join edge links input i to the set.
func edgeBetween(blk *workflow.Block, in expr.Set, i int) bool {
	for _, e := range blk.Joins {
		if in.Has(e.LeftInput) && e.RightInput == i || in.Has(e.RightInput) && e.LeftInput == i {
			return true
		}
	}
	return false
}

// LeftDeepTree builds the left-deep join tree realizing an input order
// (each prefix must be connected in the block's join graph). The schedule
// package reuses it to realize observation plans.
func LeftDeepTree(blk *workflow.Block, order []int) *workflow.JoinTree {
	return leftDeep(blk, order)
}

// leftDeep builds the left-deep join tree for an input order.
func leftDeep(blk *workflow.Block, order []int) *workflow.JoinTree {
	tree := &workflow.JoinTree{Leaf: order[0], Join: -1}
	in := expr.NewSet(order[0])
	for _, i := range order[1:] {
		edge := -1
		for j, e := range blk.Joins {
			if in.Has(e.LeftInput) && e.RightInput == i || in.Has(e.RightInput) && e.LeftInput == i {
				edge = j
				break
			}
		}
		tree = &workflow.JoinTree{
			Leaf: -1, Join: edge,
			Left:  tree,
			Right: &workflow.JoinTree{Leaf: i, Join: -1},
		}
		in = in.Add(i)
	}
	return tree
}
