package workflow

import (
	"fmt"
	"sort"
)

// BlockInput is one leaf of a block's join graph: a base relation or the
// output of an upstream block, together with the unary operators (selects,
// projects, transforms) pushed down onto it. The pushed-down chain is fixed
// relative to the join reordering: the optimizer permutes joins over the
// *results* of these chains.
type BlockInput struct {
	// Name is the logical relation name used in sub-expression labels. For
	// base relations it is the relation name; for upstream block outputs
	// it is "block<k>".
	Name string
	// SourceRel is the base relation name, or "" for block outputs.
	SourceRel string
	// FromBlock is the index of the upstream block feeding this input, or
	// -1 for base relations.
	FromBlock int
	// EntryNode is the graph node whose output enters this block (the
	// source node or the upstream block's terminal node).
	EntryNode NodeID
	// Ops are the pushed-down unary operators applied to this input before
	// any join, in execution order.
	Ops []*Node
	// Attrs is the schema available at the end of Ops.
	Attrs []Attr
}

// BlockJoin is one equi-join edge in a block's join graph.
type BlockJoin struct {
	// LeftInput and RightInput index Block.Inputs. LeftInput owns
	// LeftAttr; RightInput owns RightAttr.
	LeftInput, RightInput int
	LeftAttr, RightAttr   Attr
	// ForeignKey mirrors JoinSpec.ForeignKey.
	ForeignKey bool
	// Node is the join node in the original graph.
	Node NodeID
}

// JoinTree is a binary join tree over block inputs; it records the initial
// plan (the order the designer wrote) and is also the shape produced by the
// optimizer for alternative plans.
type JoinTree struct {
	// Leaf is the Block.Inputs index for leaf nodes, or -1 for internal
	// nodes.
	Leaf int
	// Join indexes Block.Joins for internal nodes (the predicate applied
	// at this node), or -1 for leaves.
	Join        int
	Left, Right *JoinTree
}

// IsLeaf reports whether t is a leaf of the join tree.
func (t *JoinTree) IsLeaf() bool { return t.Leaf >= 0 }

// Inputs returns the sorted set of input indexes under t.
func (t *JoinTree) Inputs() []int {
	var out []int
	var walk func(*JoinTree)
	walk = func(n *JoinTree) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			out = append(out, n.Leaf)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t)
	sort.Ints(out)
	return out
}

// String renders the tree with input names from the block, e.g.
// "((Orders ⋈ Product) ⋈ Customer)".
func (t *JoinTree) String() string { return t.render(nil) }

// Render renders the tree using the block's input names.
func (t *JoinTree) Render(b *Block) string { return t.render(b) }

func (t *JoinTree) render(b *Block) string {
	if t == nil {
		return "∅"
	}
	if t.IsLeaf() {
		if b != nil && t.Leaf < len(b.Inputs) {
			return b.Inputs[t.Leaf].Name
		}
		return fmt.Sprintf("R%d", t.Leaf)
	}
	return "(" + t.Left.render(b) + " ⋈ " + t.Right.render(b) + ")"
}

// Block is an optimizable unit of a workflow: a join graph over a set of
// inputs, plus pinned operators at the top that terminate the block. Joins
// inside a block may be freely reordered (subject to connectivity); nothing
// moves across block boundaries.
type Block struct {
	// Index is the block's position in Analysis.Blocks (topological).
	Index int
	// Inputs are the leaves of the join graph.
	Inputs []BlockInput
	// Joins are the equi-join edges among inputs.
	Joins []BlockJoin
	// Initial is the join tree as designed by the user (nil when the block
	// has a single input).
	Initial *JoinTree
	// TopOps are operators pinned above all joins, in execution order:
	// floating transforms, projects over join results, and the terminator
	// (group-by, aggregate UDF, materialize, pinned transform) when
	// present.
	TopOps []*Node
	// Terminal is the last graph node belonging to this block; its output
	// crosses the block boundary.
	Terminal NodeID
	// RejectPinned marks a block that consists of a single join with a
	// materialized reject link; such a block admits exactly one plan.
	RejectPinned bool
	// OutAttrs is the schema of the block's output.
	OutAttrs []Attr
}

// NumInputs returns the number of join-graph leaves.
func (b *Block) NumInputs() int { return len(b.Inputs) }

// InputIndexByAttr returns the index of the input whose schema owns a, or
// -1 when no input owns it.
func (b *Block) InputIndexByAttr(a Attr) int {
	for i := range b.Inputs {
		if attrIn(b.Inputs[i].Attrs, a) {
			return i
		}
	}
	return -1
}

// Analysis is the result of decomposing a workflow into optimizable blocks.
type Analysis struct {
	Graph  *Graph
	Cat    *Catalog
	Blocks []*Block
	// Schema maps every node to its output attribute set.
	Schema map[NodeID][]Attr
}

// Block containing the given graph node, or nil.
func (an *Analysis) BlockOf(id NodeID) *Block {
	for _, b := range an.Blocks {
		if b.Terminal == id {
			return b
		}
		for _, j := range b.Joins {
			if j.Node == id {
				return b
			}
		}
		for _, in := range b.Inputs {
			for _, op := range in.Ops {
				if op.ID == id {
					return b
				}
			}
		}
		for _, op := range b.TopOps {
			if op.ID == id {
				return b
			}
		}
	}
	return nil
}

// Analyze validates the workflow, infers schemas, registers derived
// attributes in a cloned catalog, and splits the workflow into optimizable
// blocks per Section 3.2.1: boundaries at materialized intermediate results
// (materialize nodes and reject links), at transforms whose derived output
// is a downstream join attribute and whose inputs span a join, and at
// blocking aggregate operators (group-by, aggregate UDFs).
func Analyze(g *Graph, cat *Catalog) (*Analysis, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	cat = cat.clone()
	registerDerived(g, cat)
	schema, err := g.schema(cat)
	if err != nil {
		return nil, err
	}
	an := &Analysis{Graph: g, Cat: cat, Schema: schema}

	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	joinAttrs := collectJoinAttrs(g)

	// cut[id] is true when the output edge of node id is a block boundary:
	// downstream operators may not be reordered with anything at or below
	// id.
	cut := make(map[NodeID]bool)
	for _, n := range order {
		switch n.Kind {
		case KindGroupBy, KindAggregateUDF, KindMaterialize:
			cut[n.ID] = true
		case KindJoin:
			if n.Join.RejectLink {
				// The reject record-set pins the join: its output is a
				// boundary, and any joins feeding it must stay in their own
				// upstream block (they cannot absorb this join's other
				// side). Inputs without joins of their own (sources,
				// pushed-down unary chains) need no extra boundary.
				cut[n.ID] = true
				for _, in := range n.Inputs {
					if containsJoin(g, in, cut) {
						cut[in] = true
					}
				}
			}
		case KindTransform:
			if pinnedTransform(g, n, schema, joinAttrs) {
				cut[n.ID] = true
			}
		}
	}

	// A block terminates at each cut node and at each sink's input chain.
	// Build blocks bottom-up in topological order so upstream blocks get
	// smaller indexes.
	built := make(map[NodeID]int) // terminal node -> block index
	for _, n := range order {
		terminal := cut[n.ID] || n.Kind == KindSink
		if !terminal {
			continue
		}
		root := n.ID
		if n.Kind == KindSink {
			// The sink itself stores nothing to optimize; the block ends at
			// its input unless that input already terminates a block.
			in := n.Inputs[0]
			if _, done := built[in]; done || cut[in] {
				continue
			}
			root = in
		}
		if _, done := built[root]; done {
			continue
		}
		b, err := buildBlock(g, cat, schema, cut, built, root, an)
		if err != nil {
			return nil, err
		}
		b.Index = len(an.Blocks)
		an.Blocks = append(an.Blocks, b)
		built[root] = b.Index
	}
	return an, nil
}

// registerDerived adds every transform output attribute to the catalog so
// histogram sizing works; the domain defaults to the (largest) input
// attribute's domain, a conservative bound for value-mapping UDFs.
func registerDerived(g *Graph, cat *Catalog) {
	for _, n := range g.Nodes {
		if n.Kind != KindTransform && n.Kind != KindAggregateUDF {
			continue
		}
		var dom int64 = 1
		for _, in := range n.Transform.Ins {
			if d, err := cat.Domain(in); err == nil && d > dom {
				dom = d
			}
		}
		if _, err := cat.Domain(n.Transform.Out); err != nil {
			cat.AddDerived(n.Transform.Out, dom)
		}
	}
}

// collectJoinAttrs returns the set of attributes used as a join key
// anywhere in the workflow.
func collectJoinAttrs(g *Graph) map[Attr]bool {
	out := make(map[Attr]bool)
	for _, n := range g.Nodes {
		if n.Kind == KindJoin {
			out[n.Join.Left] = true
			out[n.Join.Right] = true
		}
	}
	return out
}

// pinnedTransform reports whether a transform node forms a block boundary:
// its output is used as a downstream join attribute and its input subtree
// joins more than one base relation (so those relations must be joined
// before the downstream join can run).
func pinnedTransform(g *Graph, n *Node, schema map[NodeID][]Attr, joinAttrs map[Attr]bool) bool {
	if !joinAttrs[n.Transform.Out] {
		return false
	}
	return baseRelCount(g, n.Inputs[0]) > 1
}

// containsJoin reports whether the region below node id (stopping at
// already-cut nodes and sources) contains a join operator.
func containsJoin(g *Graph, id NodeID, cut map[NodeID]bool) bool {
	n := g.Node(id)
	if n == nil || n.Kind == KindSource || cut[id] {
		return false
	}
	if n.Kind == KindJoin {
		return true
	}
	for _, in := range n.Inputs {
		if containsJoin(g, in, cut) {
			return true
		}
	}
	return false
}

// baseRelCount counts the distinct base relations feeding node id.
func baseRelCount(g *Graph, id NodeID) int {
	seen := make(map[string]bool)
	var walk func(NodeID)
	walk = func(cur NodeID) {
		n := g.Node(cur)
		if n == nil {
			return
		}
		if n.Kind == KindSource {
			seen[n.Rel] = true
			return
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(id)
	return len(seen)
}

// unit is the working state while folding a subtree into block structure.
type unit struct {
	inputs []BlockInput
	joins  []BlockJoin
	tree   *JoinTree
	top    []*Node
}

func (u *unit) single() bool { return len(u.inputs) == 1 && len(u.joins) == 0 }

// buildBlock folds the subtree rooted at root (stopping at cut edges and at
// sources) into a Block.
func buildBlock(g *Graph, cat *Catalog, schema map[NodeID][]Attr, cut map[NodeID]bool, built map[NodeID]int, root NodeID, an *Analysis) (*Block, error) {
	var fold func(id NodeID, isRoot bool) (*unit, error)
	fold = func(id NodeID, isRoot bool) (*unit, error) {
		n := g.Node(id)
		if n == nil {
			return nil, fmt.Errorf("block build: unknown node %q", id)
		}
		// A cut node that is not this block's root is an upstream block's
		// terminal: it enters as a block input.
		if !isRoot && cut[id] {
			bi, ok := built[id]
			if !ok {
				return nil, fmt.Errorf("block build: upstream block for %q not built", id)
			}
			name := fmt.Sprintf("block%d", bi)
			return &unit{
				inputs: []BlockInput{{
					Name:      name,
					FromBlock: bi,
					EntryNode: id,
					Attrs:     schema[id],
				}},
				tree: &JoinTree{Leaf: 0, Join: -1},
			}, nil
		}
		switch n.Kind {
		case KindSource:
			return &unit{
				inputs: []BlockInput{{
					Name:      n.Rel,
					SourceRel: n.Rel,
					FromBlock: -1,
					EntryNode: id,
					Attrs:     schema[id],
				}},
				tree: &JoinTree{Leaf: 0, Join: -1},
			}, nil
		case KindJoin:
			lu, err := fold(n.Inputs[0], false)
			if err != nil {
				return nil, err
			}
			ru, err := fold(n.Inputs[1], false)
			if err != nil {
				return nil, err
			}
			return mergeJoin(n, lu, ru)
		case KindSelect, KindProject, KindTransform:
			u, err := fold(n.Inputs[0], false)
			if err != nil {
				return nil, err
			}
			applyUnary(u, n)
			return u, nil
		case KindGroupBy, KindAggregateUDF, KindMaterialize:
			u, err := fold(n.Inputs[0], false)
			if err != nil {
				return nil, err
			}
			u.top = append(u.top, n)
			return u, nil
		default:
			return nil, fmt.Errorf("block build: unexpected node kind %v at %q", n.Kind, id)
		}
	}

	u, err := fold(root, true)
	if err != nil {
		return nil, err
	}
	b := &Block{
		Inputs:   u.inputs,
		Joins:    u.joins,
		TopOps:   u.top,
		Terminal: root,
		OutAttrs: schema[root],
	}
	if len(u.joins) > 0 {
		b.Initial = u.tree
	}
	if n := g.Node(root); n.Kind == KindJoin && n.Join.RejectLink {
		b.RejectPinned = true
	}
	return b, nil
}

// applyUnary attaches a unary operator to a unit: pushed down onto the
// owning input when possible, otherwise kept as a top operator.
func applyUnary(u *unit, n *Node) {
	if u.single() {
		u.inputs[0].Ops = append(u.inputs[0].Ops, n)
		updateInputSchema(&u.inputs[0], n)
		return
	}
	switch n.Kind {
	case KindSelect:
		// A selection over a join result commutes with the join; push it
		// to the input that owns the predicate attribute.
		for i := range u.inputs {
			if attrIn(u.inputs[i].Attrs, n.Pred.Attr) {
				u.inputs[i].Ops = append(u.inputs[i].Ops, n)
				return
			}
		}
		u.top = append(u.top, n)
	case KindTransform:
		// A non-pinned transform whose inputs live on one join-graph input
		// can be pushed down; otherwise it floats above the joins.
		for i := range u.inputs {
			all := true
			for _, a := range n.Transform.Ins {
				if !attrIn(u.inputs[i].Attrs, a) {
					all = false
					break
				}
			}
			if all {
				u.inputs[i].Ops = append(u.inputs[i].Ops, n)
				updateInputSchema(&u.inputs[i], n)
				return
			}
		}
		u.top = append(u.top, n)
	default: // projects over join results stay on top
		u.top = append(u.top, n)
	}
}

// updateInputSchema extends or narrows a block input's schema after a
// pushed-down operator.
func updateInputSchema(in *BlockInput, n *Node) {
	switch n.Kind {
	case KindTransform:
		if !attrIn(in.Attrs, n.Transform.Out) {
			in.Attrs = SortAttrs(append(append([]Attr(nil), in.Attrs...), n.Transform.Out))
		}
	case KindProject:
		in.Attrs = SortAttrs(append([]Attr(nil), n.Cols...))
	}
}

// mergeJoin combines the two input units of a join node, re-indexing the
// right unit's inputs and join edges.
func mergeJoin(n *Node, lu, ru *unit) (*unit, error) {
	off := len(lu.inputs)
	out := &unit{
		inputs: append(append([]BlockInput(nil), lu.inputs...), ru.inputs...),
		joins:  append([]BlockJoin(nil), lu.joins...),
		top:    append(append([]*Node(nil), lu.top...), ru.top...),
	}
	for _, j := range ru.joins {
		j.LeftInput += off
		j.RightInput += off
		out.joins = append(out.joins, j)
	}
	la, ra := n.Join.Left, n.Join.Right
	li := ownerIndex(out.inputs[:off], la)
	ri := ownerIndex(out.inputs[off:], ra)
	if li < 0 && ri < 0 {
		// The designer may have written the attributes swapped relative to
		// the dataflow sides; joins are symmetric, so normalize.
		la, ra = ra, la
		li = ownerIndex(out.inputs[:off], la)
		ri = ownerIndex(out.inputs[off:], ra)
	}
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("join %q: cannot locate owners of %s / %s", n.ID, n.Join.Left, n.Join.Right)
	}
	edge := BlockJoin{
		LeftInput:  li,
		RightInput: off + ri,
		LeftAttr:   la,
		RightAttr:  ra,
		ForeignKey: n.Join.ForeignKey,
		Node:       n.ID,
	}
	out.joins = append(out.joins, edge)
	rt := shiftTree(ru.tree, off, len(lu.joins))
	out.tree = &JoinTree{Leaf: -1, Join: len(out.joins) - 1, Left: lu.tree, Right: rt}
	return out, nil
}

func ownerIndex(ins []BlockInput, a Attr) int {
	for i := range ins {
		if attrIn(ins[i].Attrs, a) {
			return i
		}
	}
	return -1
}

// shiftTree re-indexes a join tree after its unit's inputs were appended at
// offset leafOff and its join edges at offset joinOff.
func shiftTree(t *JoinTree, leafOff, joinOff int) *JoinTree {
	if t == nil {
		return nil
	}
	if t.IsLeaf() {
		return &JoinTree{Leaf: t.Leaf + leafOff, Join: -1}
	}
	return &JoinTree{
		Leaf:  -1,
		Join:  t.Join + joinOff,
		Left:  shiftTree(t.Left, leafOff, joinOff),
		Right: shiftTree(t.Right, leafOff, joinOff),
	}
}
