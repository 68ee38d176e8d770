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
	"math"
	"slices"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Estimator derives statistic values from an observed store. It memoizes by
// statistic id and follows candidate-set inputs as ids; only statistics
// outside the generated universe (ad-hoc diagnostics, sketch probes) are
// keyed by descriptor.
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
	// observed, directly or through its sketch sibling, or unknown.
	k := s.Key()
	if v, ok := e.extra[k]; ok {
		if v == nil {
			return nil, &derivationError{format: errNotDerivable, stat: s}
		}
		return v, nil
	}
	v, err := e.observed(s)
	if err != nil {
		return nil, err
	}
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

// observed returns the statistic's value when the store holds it or its
// sketch sibling, and nil when it holds neither.
func (e *Estimator) observed(s stats.Stat) (*stats.Value, error) {
	if v, ok := e.Store.Get(s); ok {
		return fromStore(s, v)
	}
	// Approximate tier (rules A1/A2): an unobserved exact statistic whose
	// sketch sibling was observed takes the sketch's estimate. The value is
	// tagged Approx so every derivation built on it inherits the tag.
	if av, ok := stats.ApproxVariant(s); ok {
		if v, ok := e.Store.Get(av); ok {
			return fromStore(s, v)
		}
	}
	return nil, nil
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
	v, err := e.observed(s)
	if err != nil {
		return nil, err
	}
	if v != nil {
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
		v.Approx = v.Approx || e.anyApproxInput(c)
		e.memo[id], e.state[id] = v, derived+evalState(i)
		return v, nil
	}
	e.state[id] = evaluated
	if firstErr != nil {
		return nil, &derivationError{format: errNotDerivable, stat: s, cause: firstErr}
	}
	return nil, &derivationError{format: errNoCandidates, stat: s}
}

// fromStore copies a stored value out as statistic s. A sketch also fills
// the field its exact sibling reads: an HLL puts its estimate in Scalar
// (rule A1); a count-min puts its bucketized distribution, expanded at
// bucket midpoints, in Hist and keeps the sketch so join rules can use the
// tighter sketch-level dot product (rule A2).
func fromStore(s stats.Stat, v *stats.Value) (*stats.Value, error) {
	out := *v
	out.Stat = s
	switch {
	case v.HLL != nil:
		out.Scalar = v.HLL.Estimate()
	case v.CM != nil:
		h, err := cmHistogram(v.CM, s.Attrs)
		if err != nil {
			return nil, err
		}
		out.Hist = h
	}
	return &out, nil
}

// anyApproxInput reports whether any of the CSS's (memoized) inputs was
// derived from the approximate tier.
func (e *Estimator) anyApproxInput(c css.Candidate) bool {
	for _, in := range c.Inputs {
		if v := e.memo[in]; v != nil && v.Approx {
			return true
		}
	}
	return false
}

// cmHistogram expands a count-min sketch into a per-value histogram with
// each bucket's estimated mass placed at the bucket midpoint, so the exact
// rule algebra (marginals, predicate filters, joins) composes over it.
func cmHistogram(cm *stats.CMH, attrs []workflow.Attr) (*stats.Histogram, error) {
	if len(attrs) != 1 {
		return nil, fmt.Errorf("estimate: cm-hist over %d attributes", len(attrs))
	}
	h := stats.NewHistogram(attrs...)
	for b := 0; b < cm.Spec.N; b++ {
		f := cm.BucketEstimate(b)
		if f <= 0 {
			continue
		}
		if err := h.Inc([]int64{specMidpoint(cm.Spec, b)}, f); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// specMidpoint returns the representative value a bucket's mass is placed
// at. It must land inside its own bucket — Spec.Bucket(specMidpoint(spec,
// b)) == b — or snapping a midpoint-expanded histogram back onto the grid
// would shift mass across buckets. Truncating (b+0.5)·width can land one
// value outside when the width is barely above one, so the result walks
// back inside (at most a step or two of float error).
func specMidpoint(spec stats.BucketSpec, b int) int64 {
	mid := spec.Lo + int64((float64(b)+0.5)*spec.Width())
	if mid > spec.Hi {
		mid = spec.Hi
	}
	if mid < spec.Lo {
		mid = spec.Lo
	}
	for spec.Bucket(mid) > b && mid > spec.Lo {
		mid--
	}
	for spec.Bucket(mid) < b && mid < spec.Hi {
		mid++
	}
	return mid
}

// bucketRange returns the inclusive integer value range covered by bucket b
// (the analytical bounds corrected for float truncation, mirroring
// specMidpoint's self-consistency guarantee).
func bucketRange(spec stats.BucketSpec, b int) (lo, hi int64) {
	w := spec.Width()
	lo = spec.Lo + int64(math.Ceil(float64(b)*w))
	hi = spec.Lo + int64(math.Ceil(float64(b+1)*w)) - 1
	if lo < spec.Lo {
		lo = spec.Lo
	}
	if hi > spec.Hi {
		hi = spec.Hi
	}
	for lo > spec.Lo && spec.Bucket(lo-1) == b {
		lo--
	}
	for lo < spec.Hi && spec.Bucket(lo) != b {
		lo++
	}
	for hi < spec.Hi && spec.Bucket(hi+1) == b {
		hi++
	}
	for hi > spec.Lo && spec.Bucket(hi) != b {
		hi--
	}
	return lo, hi
}

// gridOf returns the count-min bucket layout carried by any of the values,
// if one is sketch-backed. The zip rules (J2-J5, R1) match histogram
// buckets by value, so whenever one input is a midpoint-expanded sketch the
// other side must be snapped onto the same grid first — real data values
// never equal bucket midpoints, and an unaligned zip silently produces
// empty intersections or fails division.
func gridOf(vs ...*stats.Value) (stats.BucketSpec, bool) {
	for _, v := range vs {
		if v != nil && v.CM != nil {
			return v.CM.Spec, true
		}
	}
	return stats.BucketSpec{}, false
}

// snapAttr re-buckets one attribute coordinate of a histogram onto the
// grid: every value collapses to its bucket's midpoint, merging mass.
// Snapping an already-midpoint-expanded histogram is the identity.
func snapAttr(h *stats.Histogram, a workflow.Attr, spec stats.BucketSpec) (*stats.Histogram, error) {
	pos := attrPos(h.Attrs, a)
	if pos < 0 {
		return nil, fmt.Errorf("estimate: snap attribute %v missing from histogram", a)
	}
	out := stats.NewHistogram(h.Attrs...)
	var err error
	proj := make([]int64, len(h.Attrs))
	h.Each(func(vals []int64, f int64) {
		copy(proj, vals)
		proj[pos] = specMidpoint(spec, spec.Bucket(vals[pos]))
		if e2 := out.Inc(proj, f); e2 != nil && err == nil {
			err = e2
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// approxDivide is the union–division for sketch-backed inputs: hO's
// buckets divide by hK's frequency at the matching join value (both sides
// already snapped onto the same grid), rounding the quotient instead of
// requiring the exact divisibility stats.Divide enforces — sketch
// estimates are never exactly divisible. A dividend bucket with no
// denominator partner divides by one: the super-SE's join values come from
// the extra relation by construction, so a zero there is bucketization
// noise, and dropping the mass would understate the cardinality.
func approxDivide(hO, hK *stats.Histogram, join workflow.Attr) (*stats.Histogram, error) {
	jPos := attrPos(hO.Attrs, join)
	if jPos < 0 {
		return nil, fmt.Errorf("estimate: join attribute %v missing from dividend", join)
	}
	out := stats.NewHistogram(hO.Attrs...)
	var err error
	hO.Each(func(vals []int64, f int64) {
		d := hK.Freq(vals[jPos])
		if d < 1 {
			d = 1
		}
		q := int64(math.Round(float64(f) / float64(d)))
		if q == 0 {
			return
		}
		if e2 := out.Inc(vals, q); e2 != nil && err == nil {
			err = e2
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
	v, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	h, err := e.histInput(c, 0, s.Attrs)
	if err != nil {
		return nil, err
	}
	out := &stats.Value{Stat: s, Hist: h}
	// An identity marginal of a sketch-backed distribution keeps the
	// grid, so downstream zip rules still see the count-min layout.
	if v.CM != nil && h == v.Hist {
		out.CM = v.CM
	}
	return out, nil
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
// distributions. When a side is backed by a count-min sketch the dot
// product runs at sketch level: two sketches over the same bucket layout
// multiply directly, and a sketch against an exact histogram multiplies
// against the histogram bucketized to the sketch's layout — both tighter
// than going through the midpoint expansion.
func (e *Estimator) evalJ1(s stats.Stat, c css.Candidate) (*stats.Value, error) {
	a := []workflow.Attr{c.Join}
	vL, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	vR, err := e.value(c.Inputs[1])
	if err != nil {
		return nil, err
	}
	if vL.CM != nil || vR.CM != nil {
		card, err := approxJoinCard(vL, vR, a)
		if err != nil {
			return nil, err
		}
		return &stats.Value{Stat: s, Scalar: card, Approx: true}, nil
	}
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

// approxJoinCard is the sketch-level J1 dot product.
func approxJoinCard(vL, vR *stats.Value, join []workflow.Attr) (int64, error) {
	if vL.CM != nil && vR.CM != nil && vL.CM.Spec == vR.CM.Spec {
		f, err := stats.CMDotProduct(vL.CM, vR.CM)
		if err != nil {
			return 0, err
		}
		return int64(math.Round(f)), nil
	}
	// Normalize so cm is the sketch side and the other side an exact (or
	// midpoint-expanded) histogram marginalized to the join attribute.
	cm, other := vL.CM, vR
	if cm == nil {
		cm, other = vR.CM, vL
	}
	if other.Hist == nil {
		return 0, fmt.Errorf("estimate: J1 input has neither histogram nor sketch")
	}
	h := other.Hist
	if !sameAttrs(h.Attrs, join) {
		m, err := h.Marginal(join...)
		if err != nil {
			return 0, err
		}
		h = m
	}
	ex, err := stats.Bucketize(h, cm.Spec)
	if err != nil {
		return 0, err
	}
	f, err := stats.ApproxDotProduct(cm.Approx(), ex)
	if err != nil {
		return 0, err
	}
	return int64(math.Round(f)), nil
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
	if spec, ok := gridOf(vL, vR); ok {
		if hL, err = snapAttr(hL, c.Join, spec); err != nil {
			return nil, err
		}
		if hR, err = snapAttr(hR, c.Join, spec); err != nil {
			return nil, err
		}
		h, err := stats.Join(hL, hR, c.Join, s.Attrs)
		if err != nil {
			return nil, err
		}
		// The bucket-level product counts every cross pair within a
		// bucket; under the uniform-spread assumption only 1/width of
		// them share a value — the same correction ApproxDotProduct
		// applies for J1.
		if w := spec.Width(); w > 1 {
			scaled := stats.NewHistogram(h.Attrs...)
			h.Each(func(vals []int64, f int64) {
				if q := int64(math.Round(float64(f) / w)); q > 0 {
					scaled.Inc(vals, q)
				}
			})
			h = scaled
		}
		return &stats.Value{Stat: s, Hist: h, Approx: true}, nil
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
	vO, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	vK, err := e.value(c.Inputs[1])
	if err != nil {
		return nil, err
	}
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
	if spec, ok := gridOf(vO, vK); ok {
		if hO, err = snapAttr(hO, c.Join, spec); err != nil {
			return nil, err
		}
		if hK, err = snapAttr(hK, c.Join, spec); err != nil {
			return nil, err
		}
		div, err := approxDivide(hO, hK, c.Join)
		if err != nil {
			return nil, err
		}
		return &stats.Value{Stat: s, Scalar: div.Total() + rej, Approx: true}, nil
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
	vO, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	vK, err := e.value(c.Inputs[1])
	if err != nil {
		return nil, err
	}
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
	var div *stats.Histogram
	if spec, ok := gridOf(vO, vK); ok {
		// Only the join coordinate snaps onto the sketch grid; the kept
		// attributes retain their real values for the marginal below.
		if hO, err = snapAttr(hO, c.Join, spec); err != nil {
			return nil, err
		}
		if hK, err = snapAttr(hK, c.Join, spec); err != nil {
			return nil, err
		}
		div, err = approxDivide(hO, hK, c.Join)
	} else {
		div, err = stats.DivideProject(hO, hK)
	}
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
	vT, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	vK, err := e.value(c.Inputs[1])
	if err != nil {
		return nil, err
	}
	spec, gridded := gridOf(vT, vK)
	hK, err := e.histInput(c, 1, []workflow.Attr{c.Join})
	if err != nil {
		return nil, err
	}
	if gridded {
		if hK, err = snapAttr(hK, c.Join, spec); err != nil {
			return nil, err
		}
	}
	if s.Kind == stats.Card {
		hT, err := e.histInput(c, 0, []workflow.Attr{c.Join})
		if err != nil {
			return nil, err
		}
		if gridded {
			if hT, err = snapAttr(hT, c.Join, spec); err != nil {
				return nil, err
			}
		}
		var card int64
		hT.Each(func(vals []int64, f int64) {
			if hK.Freq(vals[0]) == 0 {
				card += f
			}
		})
		return &stats.Value{Stat: s, Scalar: card}, nil
	}
	tAttrs := workflow.SortAttrs(dedupeAttrs(append([]workflow.Attr{c.Join}, s.Attrs...)))
	hT, err := e.histInput(c, 0, tAttrs)
	if err != nil {
		return nil, err
	}
	if gridded {
		if hT, err = snapAttr(hT, c.Join, spec); err != nil {
			return nil, err
		}
	}
	jPos := attrPos(hT.Attrs, c.Join)
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
	v0, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	h, err := e.histInput(c, 0, workflow.SortAttrs(dedupeAttrs(append([]workflow.Attr(nil), up...))))
	if err != nil {
		return nil, err
	}
	out, err := relabel(h, up, s.Attrs)
	if err != nil {
		return nil, err
	}
	res := &stats.Value{Stat: s, Hist: out}
	// Relabeling across a pass-through boundary moves no mass, so a
	// sketch-backed single-attribute distribution keeps its grid.
	if v0.CM != nil && len(s.Attrs) == 1 {
		res.CM = v0.CM
	}
	return res, nil
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
	v, err := e.value(c.Inputs[0])
	if err != nil {
		return nil, err
	}
	// A sketch-backed distribution has its mass at bucket midpoints;
	// testing the predicate against those would make equality predicates
	// match (almost) never and range predicates jump at bucket edges.
	// Instead weight each bucket by the fraction of its value range that
	// satisfies the predicate, assuming uniform spread within the bucket.
	if v.CM != nil {
		spec := v.CM.Spec
		var card float64
		for b := 0; b < spec.N; b++ {
			f := v.CM.BucketEstimate(b)
			if f <= 0 {
				continue
			}
			lo, hi := bucketRange(spec, b)
			card += float64(f) * predFraction(op.Pred, lo, hi)
		}
		return &stats.Value{Stat: s, Scalar: int64(math.Round(card)), Approx: true}, nil
	}
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

// predFraction returns the fraction of the integers in [lo, hi] that
// satisfy the predicate.
func predFraction(p *workflow.Predicate, lo, hi int64) float64 {
	size := float64(hi) - float64(lo) + 1
	if size <= 0 {
		return 0
	}
	inRange := p.Const >= lo && p.Const <= hi
	var n float64
	switch p.Op {
	case workflow.CmpEq:
		if inRange {
			n = 1
		}
	case workflow.CmpNe:
		n = size
		if inRange {
			n--
		}
	case workflow.CmpLt:
		n = clampf(float64(p.Const)-float64(lo), 0, size)
	case workflow.CmpLe:
		n = clampf(float64(p.Const)-float64(lo)+1, 0, size)
	case workflow.CmpGt:
		n = clampf(float64(hi)-float64(p.Const), 0, size)
	case workflow.CmpGe:
		n = clampf(float64(hi)-float64(p.Const)+1, 0, size)
	}
	return n / size
}

func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
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
