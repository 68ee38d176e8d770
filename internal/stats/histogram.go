package stats

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/essential-stats/etlopt/internal/mix"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Histogram is an exact frequency distribution over a tuple of attributes:
// for each distinct value combination it stores the number of tuples
// carrying it. The paper's framework assumes histograms that estimate
// cardinalities accurately (Section 3.1); exact per-value counts realize
// that assumption, and bucketized approximations are future work there as
// here.
//
// Buckets live in flat arrays: bucket s (its slot) is the value tuple
// vals[s*arity:(s+1)*arity] with frequency freq[s]. An open-addressing
// table of slot numbers, hashed on the int64 tuple itself (mix.Tuple,
// seeded once per process), finds a tuple's slot; no bucket owns a key string or a pointer, so building,
// projecting and joining histograms allocates per call rather than per
// bucket. A bucket whose frequency reaches zero keeps its slot and is
// skipped by every reader until an increment revives it. Iteration is in
// slot (first-insertion) order.
//
// Reads — Freq, Total, Buckets, Each, and every operation on its inputs —
// write nothing to the receiver, so one histogram may be read from many
// goroutines at once (the daemon's catalog shares stored histograms
// between concurrent solves). Writes need exclusive access.
type Histogram struct {
	// Attrs are the attributes the distribution ranges over, in canonical
	// order. Values passed to Add/Freq must follow this order.
	Attrs []workflow.Attr
	vals  []int64
	freq  []int64
	// index holds slot+1 per occupied cell, 0 for an empty one; its length
	// is a power of two at least twice the slot count (or zero before the
	// first insert).
	index []int32
	live  int
}

// NewHistogram returns an empty histogram over the given attributes.
func NewHistogram(attrs ...workflow.Attr) *Histogram {
	return &Histogram{Attrs: workflow.SortAttrs(attrs)}
}

// newHistogramCap returns an empty histogram over attributes already in
// canonical order, with room for n buckets before it grows.
func newHistogramCap(attrs []workflow.Attr, n int) *Histogram {
	h := &Histogram{Attrs: attrs}
	h.reserve(n)
	return h
}

// arity returns the number of attributes.
func (h *Histogram) arity() int { return len(h.Attrs) }

// tuple returns slot s's values; the full slice expression keeps an
// append by the caller from overwriting the next slot.
func (h *Histogram) tuple(s int) []int64 {
	n := len(h.Attrs)
	return h.vals[s*n : (s+1)*n : (s+1)*n]
}

// lookup returns t's slot, or -1 and the empty index cell where t would
// go. It writes nothing.
func (h *Histogram) lookup(t []int64) (slot, cell int) {
	if len(h.index) == 0 {
		return -1, -1
	}
	n := len(h.Attrs)
	mask := len(h.index) - 1
	i := int(mix.Tuple(t)) & mask
	for {
		e := int(h.index[i])
		if e == 0 {
			return -1, i
		}
		s := e - 1
		if slices.Equal(h.vals[s*n:(s+1)*n], t) {
			return s, i
		}
		i = (i + 1) & mask
	}
}

// reserve sizes the index and the bucket arrays for n more slots.
func (h *Histogram) reserve(n int) {
	size := max(8, mix.TableSize(len(h.freq)+n))
	if size > len(h.index) {
		h.rehash(size)
	}
	h.vals = slices.Grow(h.vals, n*len(h.Attrs))
	h.freq = slices.Grow(h.freq, n)
}

// rehash rebuilds the index at the given power-of-two size. Zero-frequency
// slots are indexed too: they may revive.
func (h *Histogram) rehash(size int) {
	h.index = make([]int32, size)
	mask := size - 1
	for s := range h.freq {
		i := int(mix.Tuple(h.tuple(s))) & mask
		for h.index[i] != 0 {
			i = (i + 1) & mask
		}
		h.index[i] = int32(s + 1)
	}
}

// insert appends t as a new slot with frequency f; cell is the empty
// index cell lookup returned for t (or -1 when the index was empty).
func (h *Histogram) insert(t []int64, f int64, cell int) {
	if 2*(len(h.freq)+1) > len(h.index) {
		h.reserve(max(len(h.freq), 1))
		_, cell = h.lookup(t)
	}
	h.index[cell] = int32(len(h.freq) + 1)
	h.vals = append(h.vals, t...)
	h.freq = append(h.freq, f)
	h.live++
}

// add adds delta to t's bucket, inserting or reviving it as needed.
func (h *Histogram) add(t []int64, delta int64) {
	if delta == 0 {
		return
	}
	s, cell := h.lookup(t)
	if s < 0 {
		h.insert(t, delta, cell)
		return
	}
	before := h.freq[s]
	h.freq[s] += delta
	switch {
	case before == 0:
		h.live++
	case h.freq[s] == 0:
		h.live--
	}
}

// arityError reports a value tuple whose length does not match the
// histogram's attribute arity — a mis-declared statistic, surfaced as a
// typed error so the observation layer can degrade instead of crash.
type arityError struct {
	// Want is the histogram's arity, Got the offered tuple length.
	Want, Got int
}

func (e *arityError) Error() string {
	return fmt.Sprintf("histogram arity %d, got %d values", e.Want, e.Got)
}

// Add increments the bucket for the value tuple by one.
func (h *Histogram) Add(vals ...int64) error { return h.Inc(vals, 1) }

// Inc increments the bucket for the value tuple by delta; a bucket that
// reaches zero no longer counts. The tuple is copied in, and incrementing
// an existing bucket allocates nothing.
func (h *Histogram) Inc(vals []int64, delta int64) error {
	if len(vals) != len(h.Attrs) {
		return &arityError{Want: len(h.Attrs), Got: len(vals)}
	}
	h.add(vals, delta)
	return nil
}

// Freq returns the frequency of the value tuple.
func (h *Histogram) Freq(vals ...int64) int64 {
	if len(vals) != len(h.Attrs) {
		return 0
	}
	if s, _ := h.lookup(vals); s >= 0 {
		return h.freq[s]
	}
	return 0
}

// Total returns the sum of all bucket frequencies; for a histogram observed
// on relation T this equals |T| (identity rule I1).
func (h *Histogram) Total() int64 {
	var t int64
	for _, f := range h.freq {
		t += f
	}
	return t
}

// Buckets returns the number of non-empty buckets, i.e. the number of
// distinct value combinations |a_T|.
func (h *Histogram) Buckets() int { return h.live }

// Each calls f for every non-empty bucket in slot order. vals is a view of
// the bucket: it is valid only during the call and must not be modified;
// f must not modify h.
func (h *Histogram) Each(f func(vals []int64, freq int64)) {
	for s, fr := range h.freq {
		if fr != 0 {
			f(h.tuple(s), fr)
		}
	}
}

// compareTuples orders value tuples lexicographically by each value's
// uint64 bit pattern — the order of their big-endian byte encodings, which
// the persisted stream uses.
func compareTuples(a, b []int64) int {
	for i := range a {
		if c := cmp.Compare(uint64(a[i]), uint64(b[i])); c != 0 {
			return c
		}
	}
	return 0
}

// eachSorted is Each in ascending compareTuples order; used where
// deterministic output matters (the persisted stream, reports, tests).
func (h *Histogram) eachSorted(f func(vals []int64, freq int64)) {
	order := make([]int, 0, h.live)
	for s, fr := range h.freq {
		if fr != 0 {
			order = append(order, s)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return compareTuples(h.tuple(a), h.tuple(b)) })
	for _, s := range order {
		f(h.tuple(s), h.freq[s])
	}
}

// clone returns a deep copy.
func (h *Histogram) clone() *Histogram {
	return &Histogram{
		Attrs: slices.Clone(h.Attrs),
		vals:  slices.Clone(h.vals),
		freq:  slices.Clone(h.freq),
		index: slices.Clone(h.index),
		live:  h.live,
	}
}

// attrPos returns the positions of want within h.Attrs, or an error when an
// attribute is missing.
func (h *Histogram) attrPos(want []workflow.Attr) ([]int, error) {
	pos := make([]int, len(want))
	for i, a := range want {
		pos[i] = -1
		for j, b := range h.Attrs {
			if a == b {
				pos[i] = j
				break
			}
		}
		if pos[i] < 0 {
			return nil, fmt.Errorf("histogram over %s has no attribute %s", workflow.AttrsString(h.Attrs), a)
		}
	}
	return pos, nil
}

// project copies the values of vals at pos into dst.
func project(dst, vals []int64, pos []int) {
	for i, p := range pos {
		dst[i] = vals[p]
	}
}

// Marginal aggregates the histogram down to the given attribute subset
// (identity rule I2: a histogram on (a,b) yields the histogram on a by
// summing over b).
func (h *Histogram) Marginal(attrs ...workflow.Attr) (*Histogram, error) {
	attrs = workflow.SortAttrs(slices.Clone(attrs))
	pos, err := h.attrPos(attrs)
	if err != nil {
		return nil, err
	}
	out := newHistogramCap(attrs, h.live)
	sub := make([]int64, len(pos))
	h.Each(func(vals []int64, freq int64) {
		project(sub, vals, pos)
		out.add(sub, freq)
	})
	return out, nil
}

// DotProduct implements rule J1: the cardinality of an equi-join is the dot
// product of the two single-attribute join-column distributions,
// |T1 ⋈a T2| = Σ_v H1[v]·H2[v].
func DotProduct(h1, h2 *Histogram) (int64, error) {
	if h1.arity() != 1 || h2.arity() != 1 {
		return 0, fmt.Errorf("dot product needs single-attribute histograms, got arity %d and %d", h1.arity(), h2.arity())
	}
	var total int64
	small, large := h1, h2
	if large.Buckets() < small.Buckets() {
		small, large = large, small
	}
	for s, f := range small.freq {
		if f == 0 {
			continue
		}
		v := small.tuple(s)
		ls, _ := large.lookup(v)
		if ls < 0 {
			continue
		}
		p, err := mulInt64(f, large.freq[ls])
		if err != nil {
			return 0, fmt.Errorf("dot product: bucket %v: %w", v, err)
		}
		total, err = addInt64(total, p)
		if err != nil {
			return 0, fmt.Errorf("dot product: %w", err)
		}
	}
	return total, nil
}

// Join implements the generalized J2/J3 computation: given the left input's
// distribution over {join attribute} ∪ B1 and the right input's over
// {join attribute} ∪ B2, it returns the join result's distribution over
// out. The join attribute must be the same (class-canonical) attribute in
// both inputs; out may include the join attribute itself (rule J3) or any
// mix of B1 and B2 attributes (rule J2 and its multi-attribute extension).
func Join(h1, h2 *Histogram, join workflow.Attr, out []workflow.Attr) (*Histogram, error) {
	p1, err := h1.attrPos([]workflow.Attr{join})
	if err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	p2, err := h2.attrPos([]workflow.Attr{join})
	if err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	outAttrs := workflow.SortAttrs(slices.Clone(out))

	// For each output attribute decide which side supplies it; the join
	// attribute can come from either.
	type src struct {
		side int // 1 or 2
		pos  int
	}
	srcs := make([]src, len(outAttrs))
	for i, a := range outAttrs {
		if pos, err := h1.attrPos([]workflow.Attr{a}); err == nil {
			srcs[i] = src{1, pos[0]}
			continue
		}
		if pos, err := h2.attrPos([]workflow.Attr{a}); err == nil {
			srcs[i] = src{2, pos[0]}
			continue
		}
		return nil, fmt.Errorf("join: output attribute %s in neither input", a)
	}

	// Group the right side's slots by join value: groups' slot g holds
	// join value g and counts its buckets, and members[start[g]:start[g+1]]
	// are their slots in h2.
	groups := newHistogramCap(h2.Attrs[p2[0]:p2[0]+1], h2.live)
	key := make([]int64, 1)
	slotGroup := make([]int32, len(h2.freq))
	for s, f := range h2.freq {
		if f == 0 {
			continue
		}
		key[0] = h2.tuple(s)[p2[0]]
		g, cell := groups.lookup(key)
		if g < 0 {
			g = len(groups.freq)
			groups.insert(key, 1, cell)
		} else {
			groups.freq[g]++
		}
		slotGroup[s] = int32(g)
	}
	start := make([]int32, len(groups.freq)+1)
	for g, n := range groups.freq {
		start[g+1] = start[g] + int32(n)
	}
	members := make([]int32, h2.live)
	fill := slices.Clone(start[:len(start)-1])
	for s, f := range h2.freq {
		if f == 0 {
			continue
		}
		g := slotGroup[s]
		members[fill[g]] = int32(s)
		fill[g]++
	}

	// When one side holds at most one bucket per join value (a key join),
	// each bucket of the other side matches at most once, so the larger
	// input bounds the output; a many-to-many join grows past it.
	res := newHistogramCap(outAttrs, max(h1.live, h2.live))
	vals := make([]int64, len(srcs))
	for s1, f1 := range h1.freq {
		if f1 == 0 {
			continue
		}
		v1 := h1.tuple(s1)
		key[0] = v1[p1[0]]
		g, _ := groups.lookup(key)
		if g < 0 {
			continue
		}
		for _, s2 := range members[start[g]:start[g+1]] {
			v2 := h2.tuple(int(s2))
			for i, s := range srcs {
				if s.side == 1 {
					vals[i] = v1[s.pos]
				} else {
					vals[i] = v2[s.pos]
				}
			}
			f, err := mulInt64(f1, h2.freq[s2])
			if err != nil {
				return nil, fmt.Errorf("join: bucket %v: %w", vals, err)
			}
			res.add(vals, f)
		}
	}
	return res, nil
}

// Divide implements the paper's H1/H2 operator used by union–division
// (Equation 2): bucket-wise division. Every non-zero bucket of the
// numerator must have a non-zero, evenly dividing denominator bucket; the
// union–division derivation guarantees this when the inputs come from the
// instrumented plan, so a violation indicates a misapplied rule and is
// reported as an error.
func Divide(num, den *Histogram) (*Histogram, error) {
	if workflow.AttrsString(num.Attrs) != workflow.AttrsString(den.Attrs) {
		return nil, fmt.Errorf("divide: attribute sets differ: %s vs %s",
			workflow.AttrsString(num.Attrs), workflow.AttrsString(den.Attrs))
	}
	return divide(num, den, nil, "divide")
}

// DivideProject is Divide for the J5 case where the numerator carries extra
// attributes beyond the denominator's: the denominator bucket is looked up
// on the shared attributes only.
func DivideProject(num, den *Histogram) (*Histogram, error) {
	pos, err := num.attrPos(den.Attrs)
	if err != nil {
		return nil, fmt.Errorf("divide-project: %w", err)
	}
	return divide(num, den, pos, "divide-project")
}

// divide divides every numerator bucket by the denominator bucket at its
// values' positions pos (all of them when pos is nil).
func divide(num, den *Histogram, pos []int, op string) (*Histogram, error) {
	out := newHistogramCap(slices.Clone(num.Attrs), num.live)
	sub := make([]int64, len(den.Attrs))
	for s, f := range num.freq {
		if f == 0 {
			continue
		}
		vals := num.tuple(s)
		key := vals
		if pos != nil {
			project(sub, vals, pos)
			key = sub
		}
		var d int64
		if ds, _ := den.lookup(key); ds >= 0 {
			d = den.freq[ds]
		}
		if d == 0 {
			return nil, fmt.Errorf("%s: bucket %v has zero denominator", op, vals)
		}
		if f%d != 0 {
			return nil, fmt.Errorf("%s: bucket %v: %d not divisible by %d", op, vals, f, d)
		}
		_, cell := out.lookup(vals)
		out.insert(vals, f/d, cell)
	}
	return out, nil
}

// AddHist returns the bucket-wise sum of two histograms over the same
// attribute set (the ∪ step of union–division).
func AddHist(h1, h2 *Histogram) (*Histogram, error) {
	if workflow.AttrsString(h1.Attrs) != workflow.AttrsString(h2.Attrs) {
		return nil, fmt.Errorf("add: attribute sets differ: %s vs %s",
			workflow.AttrsString(h1.Attrs), workflow.AttrsString(h2.Attrs))
	}
	out := h1.clone()
	h2.Each(out.add)
	return out, nil
}
