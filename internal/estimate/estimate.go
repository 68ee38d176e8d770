// Package estimate evaluates candidate statistics sets numerically: given
// the statistics observed during an instrumented run (or supplied by source
// systems), it derives the value of any other statistic by recursively
// applying the paper's rules — dot products for join cardinalities (J1),
// join projections (J2/J3), the union–division algebra (J4/J5), selection
// and projection arithmetic (S/P/U), group-by rules (G1/G2) and the
// identity rules (I1/I2). With exact per-value histograms every derived
// cardinality is exact, which is what lets the optimizer cost every
// reordering from a single instrumented execution.
//
// Derivation walks the css.Result's candidate sets by statistic id, in the
// result's order (the first evaluable set wins), memoizing per id;
// descriptors enter through css.Result.Lookup, and only statistics outside
// the generated universe are memoized by stats.Key.
package estimate

import (
	"fmt"
	"slices"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Estimator derives statistic values from an observed store. It memoizes by
// statistic id and follows candidate-set inputs as ids; only statistics
// outside the generated universe (ad-hoc diagnostics) are keyed by
// descriptor.
type Estimator struct {
	Res   *css.Result
	Store *stats.Store

	// memo[id] is the value of universe statistic id once state[id] is
	// past inProgress (nil: not derivable).
	memo  []*stats.Value
	state []evalState
	// extra memoizes statistics outside the universe the same way.
	extra map[stats.Key]*stats.Value
}

// evalState is where the derivation of one universe statistic stands:
// unevaluated, inProgress, evaluated (observed, or not derivable), or
// derived+i — derived through candidate set i of Res.CSS[id], the one
// Explain renders.
type evalState int32

const (
	unevaluated evalState = iota
	inProgress
	evaluated
	derived
)

// New returns an estimator over the given CSS result and observation store.
func New(res *css.Result, store *stats.Store) *Estimator {
	return &Estimator{
		Res:   res,
		Store: store,
		memo:  make([]*stats.Value, len(res.Stats)),
		state: make([]evalState, len(res.Stats)),
		extra: make(map[stats.Key]*stats.Value),
	}
}

// CardOf returns the (derived) cardinality of an SE.
func (e *Estimator) CardOf(block int, se expr.Set) (int64, error) {
	var v *stats.Value
	var err error
	if id, ok := e.Res.CardID(block, se); ok {
		v, err = e.value(id)
	} else {
		v, err = e.Value(stats.NewCard(stats.BlockSE(block, se)))
	}
	if err != nil {
		return 0, err
	}
	return v.Scalar, nil
}

// Value computes the value of a statistic: directly from the store when
// observed, otherwise through the first evaluable candidate statistics set.
func (e *Estimator) Value(s stats.Stat) (*stats.Value, error) {
	if id, ok := e.Res.Lookup(s); ok {
		return e.value(id)
	}
	// Outside the universe there are no candidate sets: the statistic is
	// observed or unknown.
	k := s.Key()
	if v, ok := e.extra[k]; ok {
		if v == nil {
			return nil, &derivationError{format: errNotDerivable, stat: s}
		}
		return v, nil
	}
	v := e.observed(s)
	e.extra[k] = v
	if v == nil {
		return nil, &derivationError{format: errNoCandidates, stat: s}
	}
	return v, nil
}

// derivationError reports why a statistic has no value. Most are dropped
// unread — the estimator moves on to the next candidate set — so the text,
// which spells the statistic's key and the whole chain of causes, is
// rendered only when asked for.
type derivationError struct {
	format string // one %v: the statistic's key
	stat   stats.Stat
	cause  error
}

const (
	errNotDerivable = "estimate: statistic %v not derivable"
	errCyclic       = "estimate: cyclic derivation at %v"
	errNoCandidates = "estimate: statistic %v not observed and has no candidate statistics set"
)

func (e *derivationError) Error() string {
	msg := fmt.Sprintf(e.format, e.stat.Key())
	if e.cause != nil {
		msg += ": " + e.cause.Error()
	}
	return msg
}

func (e *derivationError) Unwrap() error { return e.cause }

// observed returns a copy of the statistic's stored value, or nil when the
// store does not hold it.
func (e *Estimator) observed(s stats.Stat) *stats.Value {
	v, ok := e.Store.Get(s)
	if !ok {
		return nil
	}
	out := *v
	out.Stat = s
	return &out
}

// value is Value for a statistic of the universe, by id.
func (e *Estimator) value(id int32) (*stats.Value, error) {
	if v := e.memo[id]; v != nil {
		return v, nil
	}
	s := e.Res.Stats[id]
	switch e.state[id] {
	case evaluated:
		return nil, &derivationError{format: errNotDerivable, stat: s}
	case inProgress:
		return nil, &derivationError{format: errCyclic, stat: s}
	}
	if v := e.observed(s); v != nil {
		e.memo[id], e.state[id] = v, evaluated
		return v, nil
	}
	e.state[id] = inProgress
	var firstErr error
	for i, c := range e.Res.CSS[id] {
		v, err := e.eval(s, c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.memo[id], e.state[id] = v, derived+evalState(i)
		return v, nil
	}
	e.state[id] = evaluated
	if firstErr != nil {
		return nil, &derivationError{format: errNotDerivable, stat: s, cause: firstErr}
	}
	return nil, &derivationError{format: errNoCandidates, stat: s}
}

// histInput evaluates input idx of the CSS as a histogram marginalized down
// to the wanted attributes (which absorbs I2-substituted supersets).
func (e *Estimator) histInput(c css.Candidate, idx int, want []workflow.Attr) (*stats.Histogram, error) {
	v, err := e.value(c.Inputs[idx])
	if err != nil {
		return nil, err
	}
	if v.Hist == nil {
		return nil, fmt.Errorf("estimate: CSS input %d is not a histogram", idx)
	}
	if sameAttrs(v.Hist.Attrs, want) {
		return v.Hist, nil
	}
	return v.Hist.Marginal(want...)
}

// sameAttrs reports whether two attribute lists name the same set; lists in
// canonical order — every statistic's and histogram's — compare without
// rendering.
func sameAttrs(a, b []workflow.Attr) bool {
	return slices.Equal(a, b) || workflow.AttrsString(a) == workflow.AttrsString(b)
}

func (e *Estimator) scalarInput(c css.Candidate, idx int) (int64, error) {
	v, err := e.value(c.Inputs[idx])
	if err != nil {
		return 0, err
	}
	if v.Hist != nil {
		return 0, fmt.Errorf("estimate: CSS input %d is a histogram, want scalar", idx)
	}
	return v.Scalar, nil
}

// evaluator computes a statistic from one candidate set of its rule.
type evaluator func(*Estimator, stats.Stat, css.Candidate) (*stats.Value, error)

// evaluators holds each rule's evaluator, indexed by css.Rule. init fills
// it: the evaluators recurse through eval, so an initializer expression
// would be an initialization cycle.
var evaluators [css.NumRules]evaluator

func init() {
	evaluators = [css.NumRules]evaluator{
		css.RuleJ1: (*Estimator).evalJ1,
		css.RuleJ2: (*Estimator).evalJoinHist,
		css.RuleJ3: (*Estimator).evalJoinHist,
		css.RuleJ4: (*Estimator).evalJ4,
		css.RuleJ5: (*Estimator).evalJ5,
		css.RuleR1: (*Estimator).evalR1,
		css.RuleFK: (*Estimator).evalSameScalar,
		css.RuleS1: (*Estimator).evalS1,
		css.RuleS2: (*Estimator).evalS2,
		css.RuleP1: (*Estimator).evalSameScalar,
		css.RuleP2: (*Estimator).evalMarginal,
		css.RuleU1: (*Estimator).evalSameScalar,
		css.RuleU2: (*Estimator).evalMarginal,
		css.RuleB0: (*Estimator).evalBoundaryCopy,
		css.RuleG1: (*Estimator).evalSameScalar,
		css.RuleG2: (*Estimator).evalG2,
		css.RuleD1: (*Estimator).evalD1,
		css.RuleI1: (*Estimator).evalI1,
		css.RuleI2: (*Estimator).evalMarginal,
	}
}

// eval evaluates one CSS according to its rule.
func (e *Estimator) eval(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	if c.Rule >= css.NumRules || evaluators[c.Rule] == nil {
		return nil, fmt.Errorf("estimate: no evaluator for rule %v", c.Rule)
	}
	return evaluators[c.Rule](e, s, c)
}

// evalSameScalar is the rules whose target equals their one scalar input:
// the fact side of a look-up join (FK), the input of a projection or
// transform (P1, U1), the upstream key count of a group-by (G1).
func (e *Estimator) evalSameScalar(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	v, err := e.scalarInput(c, 0)
	if err != nil {
		return nil, err
	}
	return &stats.Value{Stat: s, Scalar: v}, nil
}

// evalMarginal is the rules whose target is a marginal of their one
// histogram input (P2, U2, I2).
func (e *Estimator) evalMarginal(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	h, err := e.histInput(c, 0, s.Attrs)
	if err != nil {
		return nil, err
	}
	return &stats.Value{Stat: s, Hist: h}, nil
}

// evalD1 reads a distinct count off its histogram's bucket count.
func (e *Estimator) evalD1(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	v, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	if v.Hist == nil {
		return nil, fmt.Errorf("estimate: D1 input is not a histogram")
	}
	return &stats.Value{Stat: s, Scalar: int64(v.Hist.Buckets())}, nil
}

// evalI1 reads a cardinality off any histogram's total.
func (e *Estimator) evalI1(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	v, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	if v.Hist == nil {
		return nil, fmt.Errorf("estimate: I1 input is not a histogram")
	}
	return &stats.Value{Stat: s, Scalar: v.Hist.Total()}, nil
}

// evalJ1 computes |L ⋈ R| as the dot product of the join-column
// distributions.
func (e *Estimator) evalJ1(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	a := []workflow.Attr{c.Join}
	hL, err := e.histInput(c, 0, a)
	if err != nil {
		return nil, err
	}
	hR, err := e.histInput(c, 1, a)
	if err != nil {
		return nil, err
	}
	card, err := stats.DotProduct(hL, hR)
	if err != nil {
		return nil, err
	}
	return &stats.Value{Stat: s, Scalar: card}, nil
}

// evalJoinHist computes the join result's distribution per the generalized
// J2/J3 rule: split the wanted attributes by owning side, join the two
// marginals on the join class.
func (e *Estimator) evalJoinHist(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	vL, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	vR, err := e.value(c.Inputs[1])
	if err != nil {
		return nil, err
	}
	if vL.Hist == nil || vR.Hist == nil {
		return nil, fmt.Errorf("estimate: J2 inputs must be histograms")
	}
	wantL := []workflow.Attr{c.Join}
	wantR := []workflow.Attr{c.Join}
	for _, t := range s.Attrs {
		if t == c.Join {
			continue
		}
		switch {
		case histHasAttr(vL.Hist, t):
			wantL = append(wantL, t)
		case histHasAttr(vR.Hist, t):
			wantR = append(wantR, t)
		default:
			return nil, fmt.Errorf("estimate: attribute %v of target in neither J2 input", t)
		}
	}
	hL, err := vL.Hist.Marginal(wantL...)
	if err != nil {
		return nil, err
	}
	hR, err := vR.Hist.Marginal(wantR...)
	if err != nil {
		return nil, err
	}
	h, err := stats.Join(hL, hR, c.Join, s.Attrs)
	if err != nil {
		return nil, err
	}
	return &stats.Value{Stat: s, Hist: h}, nil
}

// evalJ4 computes |e| by union–division: divide the observable super-SE's
// join-column distribution by the extra relation's, total the quotient, and
// add the reject-variant cardinality (Equation 3 of the paper).
func (e *Estimator) evalJ4(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	a := []workflow.Attr{c.Join}
	hO, err := e.histInput(c, 0, a)
	if err != nil {
		return nil, err
	}
	hK, err := e.histInput(c, 1, a)
	if err != nil {
		return nil, err
	}
	rej, err := e.scalarInput(c, 2)
	if err != nil {
		return nil, err
	}
	div, err := stats.Divide(hO, hK)
	if err != nil {
		return nil, err
	}
	return &stats.Value{Stat: s, Scalar: div.Total() + rej}, nil
}

// evalJ5 is J4 for distributions: divide the super-SE's joint distribution
// bucket-wise by the extra relation's join distribution, marginalize away
// the join attribute, and add the reject variant's distribution.
func (e *Estimator) evalJ5(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	oAttrs := workflow.SortAttrs(dedupeAttrs(append([]workflow.Attr{c.Join}, s.Attrs...)))
	hO, err := e.histInput(c, 0, oAttrs)
	if err != nil {
		return nil, err
	}
	hK, err := e.histInput(c, 1, []workflow.Attr{c.Join})
	if err != nil {
		return nil, err
	}
	hRej, err := e.histInput(c, 2, s.Attrs)
	if err != nil {
		return nil, err
	}
	div, err := stats.DivideProject(hO, hK)
	if err != nil {
		return nil, err
	}
	keep, err := div.Marginal(s.Attrs...)
	if err != nil {
		return nil, err
	}
	h, err := stats.AddHist(keep, hRej)
	if err != nil {
		return nil, err
	}
	return &stats.Value{Stat: s, Hist: h}, nil
}

// evalR1 derives a reject singleton's statistic: the rows of t whose join
// value has no partner in k.
func (e *Estimator) evalR1(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	want := []workflow.Attr{c.Join}
	if s.Kind != stats.Card {
		want = workflow.SortAttrs(dedupeAttrs(append(want, s.Attrs...)))
	}
	hT, err := e.histInput(c, 0, want)
	if err != nil {
		return nil, err
	}
	hK, err := e.histInput(c, 1, []workflow.Attr{c.Join})
	if err != nil {
		return nil, err
	}
	jPos := attrPos(hT.Attrs, c.Join)
	if s.Kind == stats.Card {
		var card int64
		hT.Each(func(vals []int64, f int64) {
			if hK.Freq(vals[jPos]) == 0 {
				card += f
			}
		})
		return &stats.Value{Stat: s, Scalar: card}, nil
	}
	filtered := stats.NewHistogram(hT.Attrs...)
	hT.Each(func(vals []int64, f int64) {
		if hK.Freq(vals[jPos]) == 0 {
			filtered.Inc(vals, f)
		}
	})
	h, err := filtered.Marginal(s.Attrs...)
	if err != nil {
		return nil, err
	}
	return &stats.Value{Stat: s, Hist: h}, nil
}

// evalBoundaryCopy relabels a statistic across a pass-through block
// boundary: the upstream histogram's class representatives become the
// downstream block's.
func (e *Estimator) evalBoundaryCopy(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	if s.Kind != stats.Hist {
		v, err := e.scalarInput(c, 0)
		if err != nil {
			return nil, err
		}
		return &stats.Value{Stat: s, Scalar: v}, nil
	}
	input := s.Target.Set.Lowest()
	up := make([]workflow.Attr, len(s.Attrs))
	for i, a := range s.Attrs {
		u, err := e.Res.BoundaryClass(s.Target.Block, input, a)
		if err != nil {
			return nil, err
		}
		up[i] = u
	}
	h, err := e.histInput(c, 0, workflow.SortAttrs(dedupeAttrs(append([]workflow.Attr(nil), up...))))
	if err != nil {
		return nil, err
	}
	out, err := relabel(h, up, s.Attrs)
	if err != nil {
		return nil, err
	}
	return &stats.Value{Stat: s, Hist: out}, nil
}

// evalS1 sums the buckets of the predicate column's distribution that
// satisfy the selection predicate.
func (e *Estimator) evalS1(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	op, err := e.chainOp(s)
	if err != nil {
		return nil, err
	}
	sp := e.Res.Space(s.Target.Block)
	class := sp.ClassOf(op.Pred.Attr)
	h, err := e.histInput(c, 0, []workflow.Attr{class})
	if err != nil {
		return nil, err
	}
	var card int64
	h.Each(func(vals []int64, f int64) {
		if op.Pred.Matches(vals[0]) {
			card += f
		}
	})
	return &stats.Value{Stat: s, Scalar: card}, nil
}

// evalS2 filters the joint distribution by the predicate and marginalizes
// down to the wanted attributes.
func (e *Estimator) evalS2(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	op, err := e.chainOp(s)
	if err != nil {
		return nil, err
	}
	sp := e.Res.Space(s.Target.Block)
	class := sp.ClassOf(op.Pred.Attr)
	need := workflow.SortAttrs(dedupeAttrs(append([]workflow.Attr{class}, s.Attrs...)))
	h, err := e.histInput(c, 0, need)
	if err != nil {
		return nil, err
	}
	pPos := attrPos(h.Attrs, class)
	filtered := stats.NewHistogram(h.Attrs...)
	h.Each(func(vals []int64, f int64) {
		if op.Pred.Matches(vals[pPos]) {
			filtered.Inc(vals, f)
		}
	})
	out, err := filtered.Marginal(s.Attrs...)
	if err != nil {
		return nil, err
	}
	return &stats.Value{Stat: s, Hist: out}, nil
}

// evalG2 builds the distribution over a group-by boundary: each distinct
// key combination upstream contributes one group.
func (e *Estimator) evalG2(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	v, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	if v.Hist == nil {
		return nil, fmt.Errorf("estimate: G2 input is not a histogram")
	}
	input := s.Target.Set.Lowest()
	up := make([]workflow.Attr, len(s.Attrs))
	for i, a := range s.Attrs {
		u, err := e.Res.BoundaryClass(s.Target.Block, input, a)
		if err != nil {
			return nil, err
		}
		up[i] = u
	}
	pos := make([]int, len(up))
	for i, a := range up {
		pos[i] = attrPos(v.Hist.Attrs, a)
		if pos[i] < 0 {
			return nil, fmt.Errorf("estimate: G2 key %v not in upstream histogram", a)
		}
	}
	out := stats.NewHistogram(s.Attrs...)
	// Sort target positions to match the output histogram's canonical
	// attribute order.
	order := attrOrder(s.Attrs)
	proj := make([]int64, len(pos))
	v.Hist.Each(func(vals []int64, _ int64) {
		for i := range pos {
			proj[order[i]] = vals[pos[i]]
		}
		out.Inc(proj, 1)
	})
	return &stats.Value{Stat: s, Hist: out}, nil
}

// chainOp returns the chain operator a chain rule refers to: for a chain
// point at depth d it is ops[d-1]; for a cooked singleton it is the last
// operator.
func (e *Estimator) chainOp(s stats.Stat) (*workflow.Node, error) {
	t := s.Target
	blk := e.Res.Analysis.Blocks[t.Block]
	i := t.Set.Lowest()
	ops := blk.Inputs[i].Ops
	d := len(ops)
	if t.IsChainPoint() {
		d = t.Depth
	}
	if d < 1 || d > len(ops) {
		return nil, fmt.Errorf("estimate: no chain operator at depth %d of input %d", d, i)
	}
	return ops[d-1], nil
}

// relabel renames histogram attributes from `from` (positions matched by
// value) to `to` and re-sorts buckets into the new canonical order.
func relabel(h *stats.Histogram, from, to []workflow.Attr) (*stats.Histogram, error) {
	if len(from) != len(to) {
		return nil, fmt.Errorf("estimate: relabel arity mismatch")
	}
	srcPos := make([]int, len(from))
	for i, a := range from {
		srcPos[i] = attrPos(h.Attrs, a)
		if srcPos[i] < 0 {
			return nil, fmt.Errorf("estimate: relabel source %v missing", a)
		}
	}
	out := stats.NewHistogram(to...)
	order := attrOrder(to)
	proj := make([]int64, len(to))
	h.Each(func(vals []int64, f int64) {
		for i := range to {
			proj[order[i]] = vals[srcPos[i]]
		}
		out.Inc(proj, f)
	})
	return out, nil
}

// attrOrder returns, for each attribute in the given list, its position in
// the canonically sorted version of the list.
func attrOrder(attrs []workflow.Attr) []int {
	sorted := workflow.SortAttrs(append([]workflow.Attr(nil), attrs...))
	out := make([]int, len(attrs))
	for i, a := range attrs {
		for j, b := range sorted {
			if a == b {
				out[i] = j
				break
			}
		}
	}
	return out
}

func attrPos(attrs []workflow.Attr, a workflow.Attr) int {
	for i, x := range attrs {
		if x == a {
			return i
		}
	}
	return -1
}

func histHasAttr(h *stats.Histogram, a workflow.Attr) bool { return attrPos(h.Attrs, a) >= 0 }

func dedupeAttrs(attrs []workflow.Attr) []workflow.Attr {
	seen := make(map[workflow.Attr]bool, len(attrs))
	out := attrs[:0]
	for _, a := range attrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
