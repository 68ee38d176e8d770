package physical

import (
	"fmt"
	"io"
	"strings"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// String renders the whole plan, block by block; see BlockPlan.format for
// the layout. The output is deterministic: node order is the compiled
// execution order and tap order follows the selection's statistic order.
func (p *Plan) String() string {
	var b strings.Builder
	for i, bp := range p.Blocks {
		if i > 0 {
			fmt.Fprintln(&b)
		}
		bp.format(&b)
	}
	return b.String()
}

// format writes one block's physical plan: a header with the executed join
// tree, then one line per node in execution order with its operator, input
// references and output arity, then indented tap lines naming the observed
// statistics in the paper's notation.
func (bp *BlockPlan) format(w io.Writer) {
	blk := bp.Block
	fmt.Fprintf(w, "block %d: %d input(s), %d join(s)", blk.Index, len(blk.Inputs), len(blk.Joins))
	if bp.Tree != nil {
		fmt.Fprintf(w, ", plan %s", bp.Tree.Render(blk))
	}
	fmt.Fprintln(w)
	for _, n := range bp.Nodes {
		fmt.Fprintf(w, "  n%02d %s%s  (%d cols)\n", n.ID, n.Label, refs(n), len(n.Attrs))
		for _, t := range n.Taps {
			fmt.Fprintf(w, "       tap %s %s\n", t.Stat.Kind, t.Stat.Label(blk))
		}
		for _, rt := range []*RejectTaps{n.LeftReject, n.RightReject} {
			if rt == nil {
				continue
			}
			side := "left"
			if rt == n.RightReject {
				side = "right"
			}
			fmt.Fprintf(w, "       reject %s (input %d, edge %d):%s\n", side, rt.Input, rt.Edge, rejectLine(blk, rt))
		}
		if n.RejectLink != "" {
			fmt.Fprintf(w, "       reject-link → %s\n", n.RejectLink)
		}
	}
	fmt.Fprintf(w, "  root n%02d → %s\n", bp.Root.ID, rootName(bp))
}

// refs renders a node's input references, e.g. "(n03)" or "(n03 ⋈ n01)".
func refs(n *Node) string {
	switch {
	case n.Kind == OpHashJoin:
		return fmt.Sprintf(" (n%02d ⋈ n%02d)", n.Left.ID, n.Right.ID)
	case n.Input != nil:
		return fmt.Sprintf(" (n%02d)", n.Input.ID)
	default:
		return ""
	}
}

// rejectLine renders one side's reject taps: the singleton statistics first,
// then the auxiliary union–division joins.
func rejectLine(blk *workflow.Block, rt *RejectTaps) string {
	var parts []string
	for _, t := range rt.Singles {
		parts = append(parts, fmt.Sprintf(" tap %s %s", t.Stat.Kind, t.Stat.Label(blk)))
	}
	for _, a := range rt.Aux {
		parts = append(parts, fmt.Sprintf(" aux⋈%s %s %s", blk.Inputs[a.Partner].Name, a.Stat.Kind, a.Stat.Label(blk)))
	}
	return strings.Join(parts, ";")
}

// NumTaps counts every tap attached anywhere in the plan: node taps,
// reject singletons and auxiliary joins.
func (p *Plan) NumTaps() int {
	n := 0
	for _, bp := range p.Blocks {
		for _, nd := range bp.Nodes {
			n += len(nd.Taps)
			for _, rt := range []*RejectTaps{nd.LeftReject, nd.RightReject} {
				if rt != nil {
					n += len(rt.Singles) + len(rt.Aux)
				}
			}
		}
	}
	return n
}

// rootName names what the block's output feeds: the terminal node's label.
func rootName(bp *BlockPlan) string {
	if bp.Block.Terminal != "" {
		return "boundary " + string(bp.Block.Terminal)
	}
	return "boundary"
}
