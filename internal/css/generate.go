package css

import (
	"slices"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Generate runs Algorithm 1 of the paper over every optimizable block of
// the analyzed workflow: starting from the required cardinalities of all
// SEs, it applies the operator rules transitively to build the statistic
// universe and each statistic's candidate statistics sets, then applies the
// identity rules one level without introducing new statistics, and finally
// classifies observability against the initial plan.
func Generate(an *workflow.Analysis, opt Options) (*Result, error) {
	res := &Result{Analysis: an, opt: opt}
	for i := range an.Blocks {
		bc, err := newBlockCtx(an, i)
		if err != nil {
			return nil, err
		}
		res.blocks = append(res.blocks, bc)
		res.Spaces = append(res.Spaces, bc.sp)
	}

	g := &generator{res: res, ids: make(map[ident]int32)}
	// Seed the worklist with S_C: the cardinality of every SE of every
	// block (lines 4–5 of Algorithm 1).
	for _, bc := range res.blocks {
		bc.cardIDs = make([]int32, len(bc.sp.SEs))
		for i, se := range bc.sp.SEs {
			bc.cardIDs[i] = g.push(bc.card(seTarget(se)))
		}
	}
	// Worklist loop (lines 6–16).
	for len(g.work) > 0 {
		p := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		g.expand(p)
	}
	order := g.canonicalOrder()
	// Identity rules, one level, no new statistics (lines 17–21).
	g.applyIdentityRules(order)
	g.finish(order)
	return res, nil
}

// generator is the state of one Generate call, over provisional statistic
// ids handed out in order of first sight.
type generator struct {
	res *Result
	// ids and idents map identities to provisional ids and back.
	ids    map[ident]int32
	idents []ident
	// lists[p] chains statistic p's candidate sets through cands, in the
	// order they were added.
	lists []candList
	cands []cand
	// ninput counts the inputs of the candidate sets kept.
	ninput int
	work   []int32
}

type candList struct{ first, last int32 }

// cand is a candidate set under provisional ids; no rule has more than
// three inputs. join is the class id of the join attribute within the
// target's block, or -1.
type cand struct {
	rule Rule
	in   [3]int32
	n    int8
	join int32
	next int32
}

// addCSS records a candidate statistics set for target and puts its inputs
// in the universe, unless an earlier set of the target has the same inputs
// (different plans can produce the same rule inputs; the first occurrence is
// kept, whatever its rule).
func (g *generator) addCSS(target int32, rule Rule, inputs ...ident) {
	g.addJoinCSS(target, rule, -1, inputs...)
}

// addJoinCSS is addCSS carrying the join-attribute class the estimation
// layer needs to evaluate join rules.
func (g *generator) addJoinCSS(target int32, rule Rule, join int32, inputs ...ident) {
	for _, in := range inputs {
		if in == g.idents[target] {
			return // a CSS referencing its own target would be circular
		}
	}
	c := cand{rule: rule, n: int8(len(inputs)), join: join, next: -1}
	for i, in := range inputs {
		c.in[i] = g.push(in)
	}
	l := &g.lists[target]
	for ci := l.first; ci >= 0; ci = g.cands[ci].next {
		if o := &g.cands[ci]; o.n == c.n && o.in == c.in {
			return
		}
	}
	ci := int32(len(g.cands))
	g.cands = append(g.cands, c)
	if l.first < 0 {
		l.first = ci
	} else {
		g.cands[l.last].next = ci
	}
	l.last = ci
	g.ninput += len(inputs)
}

// expand generates the CSSs of one statistic by dispatching on its target
// shape.
func (g *generator) expand(p int32) {
	s := g.idents[p]
	bc := g.res.blocks[s.block]
	switch {
	case s.kind == stats.Distinct:
		// A distinct count is the bucket count of the matching histogram
		// (used by rule G1's input and generally derivable).
		s.kind = stats.Hist
		g.addCSS(p, RuleD1, s)
	case s.isChainPoint():
		g.expandInput(bc, p, s, int(s.depth))
	case s.isReject():
		g.expandReject(bc, p, s)
	case s.set.Len() >= 2:
		g.expandJoinSE(bc, p, s)
	default:
		g.expandInput(bc, p, s, bc.chainLen(s.set.Lowest()))
	}
}

// expandJoinSE applies the join rules J1–J5 (and the FK metadata shortcut)
// to a statistic over a multi-input SE.
func (g *generator) expandJoinSE(bc *blockCtx, p int32, s ident) {
	attrs := bc.lists.ids[s.attrs]
	for _, pl := range bc.sp.Plans[s.set] {
		class := bc.edgeClass[pl.Edge]
		left, right := seTarget(pl.Left), seTarget(pl.Right)
		switch s.kind {
		case stats.Card:
			// J1: |L ⋈ R| from the join-column distributions.
			g.addJoinCSS(p, RuleJ1, class, bc.hist(left, class), bc.hist(right, class))
			// FK shortcut (Section 3.2.2): a look-up join keeps the fact
			// side's cardinality.
			if fact, ok := fkFactSide(bc, pl); ok {
				g.addCSS(p, RuleFK, bc.card(seTarget(fact)))
			}
		case stats.Hist:
			var bufL, bufR [8]int32
			if inL, inR, ok := bc.splitAttrs(pl.Left, pl.Right, class, attrs, bufL[:0], bufR[:0]); ok {
				rule := RuleJ2
				if len(attrs) == 1 && attrs[0] == class {
					rule = RuleJ3
				}
				g.addJoinCSS(p, rule, class, bc.hist(left, inL...), bc.hist(right, inR...))
			}
		}
	}
	if g.res.opt.UnionDivision {
		g.expandUnionDivision(bc, p, s)
	}
}

// splitAttrs partitions a histogram's attribute classes across the two
// sides of a join and adds the join class to both, producing the inputs of
// the generalized J2/J3 rule (appended to inL and inR). ok is false when an
// attribute lives on neither side.
func (bc *blockCtx) splitAttrs(left, right expr.Set, class int32, attrs, inL, inR []int32) (_, _ []int32, ok bool) {
	inL, inR = append(inL, class), append(inR, class)
	for _, a := range attrs {
		switch {
		case a == class: // carried by the join attribute itself
		case bc.owners[a].Intersects(left):
			inL = append(inL, a)
		case bc.owners[a].Intersects(right):
			inR = append(inR, a)
		default:
			return nil, nil, false
		}
	}
	return inL, inR, true
}

// fkFactSide reports whether plan p is a look-up join: its dimension side
// is the bare FK-target input with no filtering operators. It returns the
// fact side when so.
func fkFactSide(bc *blockCtx, p expr.Plan) (expr.Set, bool) {
	e := bc.blk.Joins[p.Edge]
	if !e.ForeignKey {
		return 0, false
	}
	dim := expr.NewSet(e.RightInput)
	var fact expr.Set
	switch {
	case p.Right == dim:
		fact = p.Left
	case p.Left == dim:
		fact = p.Right
	default:
		return 0, false
	}
	for _, op := range bc.blk.Inputs[e.RightInput].Ops {
		if op.Kind == workflow.KindSelect {
			return 0, false // a filtered dimension breaks the look-up property
		}
	}
	return fact, true
}

// expandUnionDivision applies rules J4/J5: for an SE e whose statistics are
// wanted, and an observable super-SE o = e ∪ {k} of the initial plan where
// k joins some t ∈ e, the statistic on e is computable from o's
// distribution on the (t,k) join attribute, k's distribution, and the
// statistic over the reject variant of e (t replaced by its rows rejected
// by the (t,k) predicate).
func (g *generator) expandUnionDivision(bc *blockCtx, p int32, s ident) {
	// Union–division is generated for cardinalities and single-attribute
	// distributions (the paper's J4/J5 shapes). Joint-distribution variants
	// would square the candidate universe on wide joins for statistics the
	// selection never favors.
	attrs := bc.lists.ids[s.attrs]
	if s.kind == stats.Hist && len(attrs) > 1 {
		return
	}
	se := s.set
	for k := 0; k < bc.blk.NumInputs(); k++ {
		if se.Has(k) {
			continue
		}
		o := se.Add(k)
		if !bc.sp.Initial[o] {
			continue
		}
		for f, e := range bc.blk.Joins {
			var t int
			switch {
			case e.LeftInput == k && se.Has(e.RightInput):
				t = e.RightInput
			case e.RightInput == k && se.Has(e.LeftInput):
				t = e.LeftInput
			default:
				continue
			}
			class := bc.edgeClass[f]
			hk := seTarget(expr.NewSet(k))
			switch s.kind {
			case stats.Card:
				// J4: |e| = |H^a_o / H^a_k| + |reject variant of e|.
				g.addJoinCSS(p, RuleJ4, class,
					bc.hist(seTarget(o), class),
					bc.hist(hk, class),
					bc.card(rejectTarget(se, t, f)))
			case stats.Hist:
				// J5 additionally carries the wanted attribute through the
				// division; it must live inside e.
				if !bc.owners[attrs[0]].Intersects(se) {
					continue
				}
				var buf [8]int32
				g.addJoinCSS(p, RuleJ5, class,
					bc.hist(seTarget(o), append(append(buf[:0], class), attrs...)...),
					bc.hist(hk, class),
					bc.stat(stats.Hist, rejectTarget(se, t, f), attrs...))
			}
		}
	}
}

// expandReject generates CSSs for statistics over reject variants: the
// reject variant of a multi-input SE joins the reject rows of input t with
// the rest of the SE, so the join rules apply with the t side replaced by
// its reject singleton. The reject singleton itself can be derived from the
// base input's joint distribution and the partner's join-column
// distribution (the rows whose join value finds no partner).
func (g *generator) expandReject(bc *blockCtx, p int32, s ident) {
	attrs := bc.lists.ids[s.attrs]
	t, f := int(s.rejIn), int(s.rejEdge)
	single := expr.NewSet(t)
	if s.set.Len() == 1 {
		// Singleton reject T̄t: derivable from H_t on (join attr ∪ attrs;
		// attrs is empty for a cardinality) plus the partner's join-column
		// distribution (rule R1, the anti-join complement of J1/J2).
		e := bc.blk.Joins[f]
		k := e.LeftInput
		if k == t {
			k = e.RightInput
		}
		class := bc.edgeClass[f]
		var buf [8]int32
		g.addJoinCSS(p, RuleR1, class,
			bc.hist(seTarget(single), append(append(buf[:0], class), attrs...)...),
			bc.hist(seTarget(expr.NewSet(k)), class))
		return
	}
	// Multi-input reject variant: join the reject singleton with the rest
	// of the SE over the unique tree edge connecting t to the rest.
	rest := s.set.Without(single)
	if !bc.sp.Connected(rest) {
		return
	}
	gEdge := -1
	for j, e := range bc.blk.Joins {
		if e.LeftInput == t && rest.Has(e.RightInput) || e.RightInput == t && rest.Has(e.LeftInput) {
			gEdge = j
			break
		}
	}
	if gEdge < 0 {
		return
	}
	class := bc.edgeClass[gEdge]
	rule := RuleJ1
	if s.kind == stats.Hist {
		rule = RuleJ2
	}
	// Split wanted attributes (none for a cardinality) between the reject
	// singleton and the rest, as in the generalized J2.
	var bufT, bufR [8]int32
	if tAttrs, restAttrs, ok := bc.splitAttrs(single, rest, class, attrs, bufT[:0], bufR[:0]); ok {
		g.addJoinCSS(p, rule, class, bc.hist(rejectTarget(single, t, f), tAttrs...), bc.hist(seTarget(rest), restAttrs...))
	}
}

// expandInput handles statistics over a single input at chain depth d (the
// chain's length for the cooked input): past a pushed-down operator, the
// chain rules (S/P/U) relate the point to the previous one; at depth 0 of an
// upstream block's output, the cross-block boundary rules (G/U/pass-through)
// relate it to the upstream block's full SE.
func (g *generator) expandInput(bc *blockCtx, p int32, s ident, d int) {
	i := s.set.Lowest()
	if d > 0 {
		g.chainRule(bc, p, s, i, d)
	} else {
		g.crossBlockRule(bc, p, s, i)
	}
}

// chainTarget canonicalizes a chain-point reference: depth equal to the
// chain length is the cooked SE; depth 0 with no upstream block and no ops
// is also the cooked SE.
func chainTarget(bc *blockCtx, i, d int) target {
	t := seTarget(expr.NewSet(i))
	if d < bc.chainLen(i) {
		t.depth = int16(d)
	}
	return t
}

// chainRule relates the statistic at chain point d of input i to the point
// d-1 through operator ops[d-1], per Tables 2 and 5 of the paper.
func (g *generator) chainRule(bc *blockCtx, p int32, s ident, i, d int) {
	attrs := bc.lists.ids[s.attrs]
	op := bc.blk.Inputs[i].Ops[d-1]
	prev := chainTarget(bc, i, d-1)
	switch op.Kind {
	case workflow.KindSelect:
		switch s.kind {
		case stats.Card:
			// S1: |σ_a(T)| from H^a_T.
			g.addCSS(p, RuleS1, bc.hist(prev, bc.classID(op.Pred.Attr)))
		case stats.Hist:
			// S2: H^b of the selection from H^{a∪b} of the input (when b
			// already contains a this is just H^b).
			var buf [8]int32
			need := append(buf[:0], attrs...)
			if predClass := bc.classID(op.Pred.Attr); !slices.Contains(need, predClass) {
				need = append(need, predClass)
			}
			if bc.hasAttrsAt(i, d-1, need) {
				g.addCSS(p, RuleS2, bc.hist(prev, need...))
			}
		}
	case workflow.KindProject, workflow.KindTransform:
		rules := [2]Rule{RuleP1, RuleP2}
		if op.Kind == workflow.KindTransform {
			rules = [2]Rule{RuleU1, RuleU2}
		}
		switch s.kind {
		case stats.Card:
			// P1, U1: projections and transforms preserve cardinality.
			g.addCSS(p, rules[0], bc.card(prev))
		case stats.Hist:
			// P2, U2: distributions over retained columns are unchanged;
			// distributions over a derived attribute are black-box.
			if op.Kind == workflow.KindTransform && slices.Contains(attrs, bc.classID(op.Transform.Out)) {
				return
			}
			if bc.hasAttrsAt(i, d-1, attrs) {
				g.addCSS(p, rules[1], bc.hist(prev, attrs...))
			}
		}
	}
}

// crossBlockRule relates a block input fed by an upstream block to the
// upstream block's full SE through the boundary operator.
func (g *generator) crossBlockRule(bc *blockCtx, p int32, s ident, i int) {
	in := bc.blk.Inputs[i]
	if in.FromBlock < 0 {
		return // base relation: only direct observation
	}
	up := g.res.blocks[in.FromBlock]
	upFull := seTarget(up.sp.Full())
	// Only single-terminator blocks have a clean boundary derivation; a
	// longer pinned pipeline is treated as opaque.
	if len(up.blk.TopOps) > 1 {
		return
	}
	var term *workflow.Node
	if len(up.blk.TopOps) == 1 {
		term = up.blk.TopOps[0]
	}
	attrs := bc.lists.ids[s.attrs]
	// Translate attribute classes from this block's space to the upstream
	// block's. A downstream class representative may not exist upstream;
	// find a physical member in the boundary schema first.
	translate := func(classes, out []int32) ([]int32, bool) {
		for _, c := range classes {
			phys, ok := memberIn(bc.chainAttrs[i][0], bc.members[c])
			if !ok {
				return nil, false
			}
			upClass := up.classID(phys)
			if !up.owners[upClass].Intersects(up.sp.Full()) {
				return nil, false
			}
			out = append(out, upClass)
		}
		return out, true
	}
	var buf, keyBuf [8]int32
	switch {
	case term == nil || term.Kind == workflow.KindMaterialize || term.Kind == workflow.KindTransform:
		// Pass-through (B0): the boundary record-set is the upstream SE. A
		// transform (U1/U2) also keeps the rows, and every distribution but
		// those over the attribute it derives.
		rules := [2]Rule{RuleB0, RuleB0}
		if term != nil && term.Kind == workflow.KindTransform {
			rules = [2]Rule{RuleU1, RuleU2}
			if slices.Contains(attrs, bc.classID(term.Transform.Out)) {
				return
			}
		}
		switch s.kind {
		case stats.Card:
			g.addCSS(p, rules[0], up.card(upFull))
		case stats.Hist:
			if upAttrs, ok := translate(attrs, buf[:0]); ok {
				g.addCSS(p, rules[1], up.hist(upFull, upAttrs...))
			}
		}
	case term.Kind == workflow.KindGroupBy:
		cols := keyBuf[:0]
		for _, a := range term.Cols {
			cols = append(cols, bc.classID(a))
		}
		keys, ok := translate(cols, cols[:0])
		if !ok {
			return
		}
		switch s.kind {
		case stats.Card:
			// G1: |G(T,a)| = |a_T|.
			g.addCSS(p, RuleG1, up.stat(stats.Distinct, upFull, keys...))
		case stats.Hist:
			// G2: distributions over (subsets of) the grouping keys come
			// from the upstream key distribution, one count per group.
			if upAttrs, ok := translate(attrs, buf[:0]); ok && subset(upAttrs, keys) {
				g.addCSS(p, RuleG2, up.hist(upFull, keys...))
			}
		}
	default:
		// Aggregate UDFs are black boxes: no derivation (trivial CSS only).
	}
}
