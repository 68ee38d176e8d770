package expr

import (
	"fmt"
	"sort"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// Plan is one way of composing an SE from two smaller SEs (Definition 1 of
// the paper): the join of Left and Right using join edge Edge of the block.
// Left always contains the lowest input index of the SE, so each unordered
// composition appears exactly once.
type Plan struct {
	Left, Right Set
	// Edge indexes Block.Joins: the predicate connecting Left and Right.
	Edge int
}

// Space is the plan space of one block: every SE any plan can produce,
// together with the plans the optimizer considers for it, the observable
// SEs of the initial (user-designed) plan, and the attribute equivalence
// classes induced by the join predicates.
type Space struct {
	Block *workflow.Block
	// SEs lists every sub-expression: all connected subsets of the join
	// graph (cross products are never generated), sorted by size then
	// value. Single-input SEs (the base inputs) come first.
	SEs []Set
	// Plans maps each SE of size ≥ 2 to its compositions.
	Plans map[Set][]Plan
	// Initial maps the SEs produced by the initial plan (those are the
	// observable intermediate results of the flow, plus the inputs and the
	// final output).
	Initial map[Set]bool
	// InitialTree is the initial plan rendered over SEs: for each
	// non-leaf SE of the initial plan, the composition used.
	InitialTree map[Set]Plan
	// classes are the attribute equivalence classes induced by the join
	// predicates, ordered by representative; classIdx maps each join
	// attribute to its class. Both are built once by Enumerate.
	classes  []attrClass
	classIdx map[workflow.Attr]int32
	// seIdx maps each SE to its position in SEs.
	seIdx map[Set]int32
	// full is the SE containing every input.
	full Set
}

// attrClass is one join-equivalence class of attributes.
type attrClass struct {
	// members lists the class canonically sorted; members[0] is the
	// representative (the lexicographically smallest attribute).
	members []workflow.Attr
	// inputs[i] is the block input owning members[i] (-1 when none does).
	inputs []int
	// owners is the set of inputs owning some member.
	owners Set
}

// Full returns the SE covering all block inputs.
func (sp *Space) Full() Set { return sp.full }

// ClassOf returns the canonical representative of an attribute's
// join-equivalence class. Attributes not used in any join map to
// themselves.
func (sp *Space) ClassOf(a workflow.Attr) workflow.Attr {
	if c, ok := sp.classIdx[a]; ok {
		return sp.classes[c].members[0]
	}
	return a
}

// ClassMembers returns every attribute equated with a (including a itself),
// sorted canonically. The slice is shared: callers must not modify it.
func (sp *Space) ClassMembers(a workflow.Attr) []workflow.Attr {
	if c, ok := sp.classIdx[a]; ok {
		return sp.classes[c].members
	}
	return []workflow.Attr{a}
}

// Owners returns the inputs whose schema owns a member of a's equivalence
// class: MemberIn(se, a) succeeds exactly when se intersects Owners(a).
func (sp *Space) Owners(a workflow.Attr) Set {
	if c, ok := sp.classIdx[a]; ok {
		return sp.classes[c].owners
	}
	if idx := sp.Block.InputIndexByAttr(a); idx >= 0 {
		return NewSet(idx)
	}
	return 0
}

// MemberIn returns an attribute from a's equivalence class that exists in
// the schema of SE se (the first in canonical order), or false when the
// class does not touch se.
func (sp *Space) MemberIn(se Set, a workflow.Attr) (workflow.Attr, bool) {
	c, ok := sp.classIdx[a]
	if !ok {
		if idx := sp.Block.InputIndexByAttr(a); idx >= 0 && se.Has(idx) {
			return a, true
		}
		return workflow.Attr{}, false
	}
	cl := &sp.classes[c]
	if !se.Intersects(cl.owners) {
		return workflow.Attr{}, false
	}
	for i, m := range cl.members {
		if idx := cl.inputs[i]; idx >= 0 && se.Has(idx) {
			return m, true
		}
	}
	return workflow.Attr{}, false
}

// IndexOf returns the position of se in SEs, or false when se is not a
// sub-expression of the block.
func (sp *Space) IndexOf(se Set) (int, bool) {
	i, ok := sp.seIdx[se]
	return int(i), ok
}

// Connected reports whether the subset s is connected in the block's join
// graph (an SE must be connected; a disconnected subset would be a cross
// product).
func (sp *Space) Connected(s Set) bool { return connected(sp.Block, s) }

func connected(b *workflow.Block, s Set) bool {
	if s.Empty() {
		return false
	}
	if s.Len() == 1 {
		return true
	}
	start := Set(1) << uint(s.Lowest())
	frontier := start
	reached := start
	for !frontier.Empty() {
		var next Set
		for _, e := range b.Joins {
			l, r := Set(1)<<uint(e.LeftInput), Set(1)<<uint(e.RightInput)
			if !s.contains(l) || !s.contains(r) {
				continue
			}
			if reached.Intersects(l) && !reached.Intersects(r) {
				next |= r
			}
			if reached.Intersects(r) && !reached.Intersects(l) {
				next |= l
			}
		}
		reached |= next
		frontier = next
	}
	return reached == s
}

// Enumerate builds the plan space of a block. It returns an error when the
// block has more than 64 inputs or a disconnected join graph (which would
// force cross products the optimizer never considers).
func Enumerate(b *workflow.Block) (*Space, error) {
	n := b.NumInputs()
	if n > 64 {
		return nil, fmt.Errorf("block has %d inputs; the bitset representation supports 64", n)
	}
	sp := &Space{
		Block:       b,
		Plans:       make(map[Set][]Plan),
		Initial:     make(map[Set]bool),
		InitialTree: make(map[Set]Plan),
	}
	sp.classIdx, sp.classes = attrClasses(b)
	for i := 0; i < n; i++ {
		sp.full = sp.full.Add(i)
	}
	if n > 1 && !connected(b, sp.full) {
		return nil, fmt.Errorf("block join graph is disconnected; cross products are not supported")
	}

	// Enumerate connected subsets as SEs, smallest first.
	var all []Set
	for v := Set(1); v <= sp.full; v++ {
		if sp.full.contains(v) && connected(b, v) {
			all = append(all, v)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Len() != all[j].Len() {
			return all[i].Len() < all[j].Len()
		}
		return all[i] < all[j]
	})
	sp.SEs = all
	sp.seIdx = make(map[Set]int32, len(all))
	for i, se := range all {
		sp.seIdx[se] = int32(i)
	}

	// Build plans: each split into two connected halves linked by an edge.
	for _, se := range all {
		if se.Len() < 2 {
			continue
		}
		se.subsets(func(left Set) {
			right := se.Without(left)
			if !connected(b, left) || !connected(b, right) {
				return
			}
			edge := joinEdgeBetween(b, left, right)
			if edge < 0 {
				return
			}
			sp.Plans[se] = append(sp.Plans[se], Plan{Left: left, Right: right, Edge: edge})
		})
	}

	// Mark observable SEs from the initial plan.
	if b.Initial != nil {
		markInitial(sp, b.Initial)
	} else if n == 1 {
		sp.Initial[NewSet(0)] = true
	}
	return sp, nil
}

// joinEdgeBetween returns the index of a join edge connecting the two
// disjoint sets, or -1. When several predicates connect them (a cyclic join
// graph), the lowest-indexed edge is returned as the representative; the
// estimation layer applies the remaining predicates as residual filters.
func joinEdgeBetween(b *workflow.Block, left, right Set) int {
	for j, e := range b.Joins {
		l, r := e.LeftInput, e.RightInput
		if left.Has(l) && right.Has(r) || left.Has(r) && right.Has(l) {
			return j
		}
	}
	return -1
}

// markInitial walks the initial join tree recording each produced SE and
// the composition that produced it.
func markInitial(sp *Space, t *workflow.JoinTree) Set {
	if t.IsLeaf() {
		s := NewSet(t.Leaf)
		sp.Initial[s] = true
		return s
	}
	l := markInitial(sp, t.Left)
	r := markInitial(sp, t.Right)
	s := l.Union(r)
	sp.Initial[s] = true
	left, right := l, r
	if !left.Has(s.Lowest()) {
		left, right = right, left
	}
	sp.InitialTree[s] = Plan{Left: left, Right: right, Edge: t.Join}
	return s
}

// attrClasses computes the join-attribute equivalence classes with a small
// union-find over the block's join predicates, and tabulates per class the
// sorted members and the inputs owning them.
func attrClasses(b *workflow.Block) (map[workflow.Attr]int32, []attrClass) {
	parent := make(map[workflow.Attr]workflow.Attr)
	var find func(a workflow.Attr) workflow.Attr
	find = func(a workflow.Attr) workflow.Attr {
		p, ok := parent[a]
		if !ok {
			parent[a] = a
			return a
		}
		if p == a {
			return a
		}
		root := find(p)
		parent[a] = root
		return root
	}
	union := func(a, b workflow.Attr) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Keep the lexicographically smaller attribute as representative
		// so class names are deterministic.
		if rb.Less(ra) {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	for _, e := range b.Joins {
		union(e.LeftAttr, e.RightAttr)
	}
	attrs := make([]workflow.Attr, 0, len(parent))
	for a := range parent {
		attrs = append(attrs, a)
	}
	// In canonical order every class meets its representative (its smallest
	// member) first and collects its members already sorted.
	workflow.SortAttrs(attrs)
	idx := make(map[workflow.Attr]int32, len(attrs))
	var classes []attrClass
	for _, a := range attrs {
		c, ok := idx[find(a)]
		if !ok {
			c = int32(len(classes))
			classes = append(classes, attrClass{})
		}
		idx[a] = c
		cl := &classes[c]
		in := b.InputIndexByAttr(a)
		cl.members = append(cl.members, a)
		cl.inputs = append(cl.inputs, in)
		if in >= 0 {
			cl.owners = cl.owners.Add(in)
		}
	}
	return idx, classes
}
