package css

import (
	"cmp"
	"slices"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// ident is a statistic's identity during generation: a comparable struct
// with no string in it — the attributes are the id of an interned list of
// the statistic's block — so hashing one touches a few machine words.
type ident struct {
	target
	attrs int32
	block int16
	kind  stats.Kind
}

// target is the relation a statistic describes, within a known block.
type target struct {
	set                   expr.Set
	depth, rejIn, rejEdge int16
}

func seTarget(se expr.Set) target { return target{set: se, depth: -1, rejIn: -1, rejEdge: -1} }

func rejectTarget(se expr.Set, t, f int) target {
	return target{set: se, depth: -1, rejIn: int16(t), rejEdge: int16(f)}
}

func (t target) isReject() bool { return t.rejIn >= 0 }

func (t target) isChainPoint() bool { return t.depth >= 0 }

// attrLists interns canonical (sorted, duplicate-free) attribute-id lists of
// one block as a trie: a list's id is found by walking from the empty list
// (id 0) one attribute at a time through next, keyed by the packed
// (prefix list id, attribute id) pair.
type attrLists struct {
	next map[uint64]int32
	// ids[l] and attrs[l] spell list l as attribute ids and as the
	// attributes themselves; str[l] is workflow.AttrsString(attrs[l]),
	// rendered once per list when the universe is put in canonical order.
	ids   [][]int32
	attrs [][]workflow.Attr
	str   []string
}

// classID returns the id of the join-equivalence class of a (a non-join
// attribute is a class of its own), interning it on first sight together
// with the class tables the rules consult.
func (bc *blockCtx) classID(a workflow.Attr) int32 {
	if c, ok := bc.attrID[a]; ok {
		return c
	}
	rep := bc.sp.ClassOf(a)
	c, ok := bc.attrID[rep]
	if !ok {
		c = int32(len(bc.reps))
		bc.reps = append(bc.reps, rep)
		bc.members = append(bc.members, bc.sp.ClassMembers(rep))
		bc.owners = append(bc.owners, bc.sp.Owners(rep))
		bc.attrID[rep] = c
	}
	bc.attrID[a] = c
	return c
}

// sortClasses puts class ids in the canonical order of their
// representatives.
func (bc *blockCtx) sortClasses(ids []int32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && bc.reps[ids[j]].Less(bc.reps[ids[j-1]]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// intern returns the id of the attribute list made of the given class ids,
// which it first sorts and de-duplicates in place (rule composition can
// mention the same class twice, e.g. J5 when the carried attribute is the
// join attribute itself).
func (bc *blockCtx) intern(ids []int32) int32 {
	bc.sortClasses(ids)
	al := &bc.lists
	l := int32(0)
	for i, a := range ids {
		if i > 0 && a == ids[i-1] {
			continue
		}
		key := uint64(l)<<32 | uint64(a)
		nl, ok := al.next[key]
		if !ok {
			nl = int32(len(al.ids))
			al.next[key] = nl
			// Clipped, so that appending to a shared list always copies.
			al.ids = append(al.ids, slices.Clip(append(slices.Clip(al.ids[l]), a)))
			al.attrs = append(al.attrs, slices.Clip(append(slices.Clip(al.attrs[l]), bc.reps[a])))
		}
		l = nl
	}
	return l
}

// stat spells the statistic (kind, t, attrs) of block bc as an identity,
// canonicalizing attrs in place.
func (bc *blockCtx) stat(kind stats.Kind, t target, attrs ...int32) ident {
	return ident{target: t, kind: kind, block: int16(bc.idx), attrs: bc.intern(attrs)}
}

func (bc *blockCtx) card(t target) ident { return bc.stat(stats.Card, t) }

func (bc *blockCtx) hist(t target, attrs ...int32) ident { return bc.stat(stats.Hist, t, attrs...) }

// push returns the provisional id of a statistic; one not seen before joins
// the universe and the worklist.
func (g *generator) push(id ident) int32 {
	if p, ok := g.ids[id]; ok {
		return p
	}
	p := int32(len(g.idents))
	g.ids[id] = p
	g.idents = append(g.idents, id)
	g.lists = append(g.lists, candList{first: -1, last: -1})
	g.work = append(g.work, p)
	return p
}

// Lookup returns the id of a statistic of the universe — its index in
// Stats — or false for a statistic outside it. It is the one door from a
// descriptor to an id, for callers that arrive with one (tests, explain,
// re-selection after failures); the planner's own layers pass ids.
func (r *Result) Lookup(s stats.Stat) (int32, bool) {
	t := s.Target
	if t.Block < 0 || t.Block >= len(r.blocks) {
		return 0, false
	}
	bc := r.blocks[t.Block]
	var buf [8]int32
	ids := buf[:0]
	for _, a := range s.Attrs {
		c, ok := bc.attrID[a]
		// Only a class representative spells a universe statistic.
		if !ok || bc.reps[c] != a {
			return 0, false
		}
		ids = append(ids, c)
	}
	// The constructors sort; a descriptor built by hand may not have.
	bc.sortClasses(ids)
	l := int32(0)
	for _, c := range ids {
		var ok bool
		// A repeated attribute finds nothing: no list holds one twice.
		if l, ok = bc.lists.next[uint64(l)<<32|uint64(c)]; !ok {
			return 0, false
		}
	}
	id, ok := r.ids[ident{target: targetOf(t), kind: s.Kind, block: int16(t.Block), attrs: l}]
	return id, ok
}

func targetOf(t stats.Target) target {
	return target{set: t.Set, depth: int16(t.Depth), rejIn: int16(t.RejectInput), rejEdge: int16(t.RejectEdge)}
}

// finish emits the result's slices under the final ids: a statistic's rank
// in order, the canonical listing of the provisional ids, which do not
// outlive this call.
func (g *generator) finish(order []int32) {
	res := g.res
	n := len(order)
	final := make([]int32, n)
	for rank, p := range order {
		final[p] = int32(rank)
	}
	res.Stats = make([]stats.Stat, n)
	res.CSS = make([][]Candidate, n)
	res.Observable = make([]bool, n)
	res.NeedsRejectLink = make([]bool, n)
	cands := make([]Candidate, 0, len(g.cands))
	inputs := make([]int32, 0, g.ninput)
	for rank, p := range order {
		id := g.idents[p]
		bc := res.blocks[id.block]
		res.Stats[rank] = stats.Stat{
			Kind: id.kind,
			Target: stats.Target{
				Block: int(id.block), Set: id.set, Depth: int(id.depth),
				RejectInput: int(id.rejIn), RejectEdge: int(id.rejEdge),
			},
			Attrs: bc.lists.attrs[id.attrs],
		}
		res.Observable[rank], res.NeedsRejectLink[rank] = classify(bc, id.target)
		from := len(cands)
		for ci := g.lists[p].first; ci >= 0; ci = g.cands[ci].next {
			c := &g.cands[ci]
			at := len(inputs)
			for _, in := range c.in[:c.n] {
				inputs = append(inputs, final[in])
			}
			out := Candidate{Rule: c.rule, Inputs: inputs[at:len(inputs):len(inputs)]}
			if c.join >= 0 {
				out.Join = bc.reps[c.join]
			}
			cands = append(cands, out)
		}
		res.CSS[rank] = cands[from:len(cands):len(cands)]
	}
	for id, p := range g.ids {
		g.ids[id] = final[p]
	}
	res.ids = g.ids
	for _, bc := range res.blocks {
		for i, p := range bc.cardIDs {
			bc.cardIDs[i] = final[p]
			res.Required = append(res.Required, res.Stats[final[p]])
		}
		res.RequiredIDs = append(res.RequiredIDs, bc.cardIDs...)
	}
}

// canonicalOrder returns the provisional ids sorted canonically. The
// attribute string — the last tie-break — is rendered once per distinct
// list, not per statistic or per comparison.
func (g *generator) canonicalOrder() []int32 {
	for _, bc := range g.res.blocks {
		al := &bc.lists
		al.str = make([]string, len(al.attrs))
		for l, attrs := range al.attrs {
			al.str[l] = workflow.AttrsString(attrs)
		}
	}
	order := make([]int32, len(g.idents))
	for p := range order {
		order[p] = int32(p)
	}
	slices.SortFunc(order, func(p, q int32) int {
		a, b := g.idents[p], g.idents[q]
		if c := cmp.Or(cmp.Compare(a.block, b.block), cmp.Compare(a.kind, b.kind), cmp.Compare(a.set, b.set),
			cmp.Compare(a.depth, b.depth), cmp.Compare(a.rejIn, b.rejIn), cmp.Compare(a.rejEdge, b.rejEdge)); c != 0 {
			return c
		}
		str := g.res.blocks[a.block].lists.str // the same block's from here on
		return cmp.Compare(str[a.attrs], str[b.attrs])
	})
	return order
}
