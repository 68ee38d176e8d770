package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// model is the naive histogram the flat one is checked against: a map from
// the big-endian encoding of a value tuple to its non-zero frequency.
type model map[string]int64

func modelKey(vals []int64) string {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	return string(buf)
}

func modelVals(k string) []int64 {
	out := make([]int64, len(k)/8)
	for i := range out {
		out[i] = int64(binary.BigEndian.Uint64([]byte(k[8*i:])))
	}
	return out
}

func (m model) inc(vals []int64, delta int64) {
	k := modelKey(vals)
	if m[k] += delta; m[k] == 0 {
		delete(m, k)
	}
}

// histOf builds a histogram holding exactly the model's buckets.
func (m model) histOf(attrs []workflow.Attr) *Histogram {
	h := NewHistogram(attrs...)
	for k, f := range m {
		h.Inc(modelVals(k), f)
	}
	return h
}

// checkModel compares every read of h with the model: Freq of each bucket
// and of absent tuples, Buckets, Total, the multiset Each yields and the
// order eachSorted yields.
func checkModel(t *testing.T, what string, h *Histogram, m model) {
	t.Helper()
	var total int64
	for k, f := range m {
		total += f
		if got := h.Freq(modelVals(k)...); got != f {
			t.Fatalf("%s: Freq%v = %d, want %d", what, modelVals(k), got, f)
		}
	}
	if got := h.Buckets(); got != len(m) {
		t.Fatalf("%s: Buckets = %d, want %d", what, got, len(m))
	}
	if got := h.Total(); got != total {
		t.Fatalf("%s: Total = %d, want %d", what, got, total)
	}
	seen := make(map[string]bool, len(m))
	h.Each(func(vals []int64, f int64) {
		k := modelKey(vals)
		if seen[k] || m[k] != f {
			t.Fatalf("%s: Each yielded %v:%d (seen before %v), model has %d", what, vals, f, seen[k], m[k])
		}
		seen[k] = true
	})
	if len(seen) != len(m) {
		t.Fatalf("%s: Each yielded %d buckets, want %d", what, len(seen), len(m))
	}
	want := make([]string, 0, len(m))
	for k := range m {
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	h.eachSorted(func(vals []int64, _ int64) { got = append(got, modelKey(vals)) })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: eachSorted order differs from the sorted encoded keys", what)
	}
}

// modelAttrs are the attributes a seed's histogram ranges over (a prefix
// of them, by arity); modelOther is the right join input's extra one.
var (
	modelAttrs = []workflow.Attr{{Rel: "R", Col: "a"}, {Rel: "R", Col: "b"}, {Rel: "R", Col: "c"}}
	modelOther = workflow.Attr{Rel: "S", Col: "d"}
)

// TestHistogramMatchesModel drives the flat histogram and the naive model
// with the same random increments — negative values, buckets removed to
// zero and revived, sizes through several rehashes up to about 5,000
// buckets — and holds every read and every operation of the algebra to the
// model.
func TestHistogramMatchesModel(t *testing.T) {
	largest := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := int(seed % 4)
		attrs := modelAttrs[:arity]
		// Values come from a per-seed pool mixing small, negative and
		// extreme numbers, so the sorted order crosses the sign bit.
		// Every fifth seed grows to about 5,000 buckets, through
		// several rehashes, over a pool large enough at every arity.
		target, poolSize := 1+rng.Intn(300), 80
		if seed%5 == 4 {
			target, poolSize = 5000, 10_000
		}
		pool := []int64{0, -1, 1, math.MinInt64, math.MaxInt64}
		for len(pool) < poolSize {
			pool = append(pool, rng.Int63n(2000)-1000, rng.Int63()-rng.Int63())
		}
		tuple := func() []int64 {
			v := make([]int64, arity)
			for i := range v {
				v[i] = pool[rng.Intn(len(pool))]
			}
			return v
		}
		h := NewHistogram(attrs...)
		m := model{}
		var inserted [][]int64
		for op := 0; op < 4*target && len(m) < target; op++ {
			var v []int64
			var delta int64
			switch r := rng.Intn(10); {
			case r < 7 || len(inserted) == 0:
				v, delta = tuple(), int64(1+rng.Intn(5))
				inserted = append(inserted, v)
			case r == 7: // remove a bucket to zero
				v = inserted[rng.Intn(len(inserted))]
				delta = -m[modelKey(v)]
			case r == 8: // revive or grow a bucket seen before
				v, delta = inserted[rng.Intn(len(inserted))], int64(1+rng.Intn(3))
			default: // any delta, negative and zero included
				v, delta = tuple(), int64(rng.Intn(7)-3)
			}
			if err := h.Inc(v, delta); err != nil {
				t.Fatalf("seed %d: Inc: %v", seed, err)
			}
			m.inc(v, delta)
		}
		what := fmt.Sprintf("seed %d (arity %d, %d buckets)", seed, arity, len(m))
		largest = max(largest, len(m))
		checkModel(t, what, h, m)
		checkAlgebra(t, what, rng, h, m, pool)

		c := h.clone()
		for _, v := range inserted[:min(len(inserted), 50)] {
			c.Inc(v, 7)
		}
		c.Inc(tuple(), -3)
		checkModel(t, what+" after mutating a clone", h, m)
	}
	if largest < 4500 {
		t.Fatalf("the largest histogram held %d buckets, want about 5,000", largest)
	}
}

// checkAlgebra holds Marginal, Join, DotProduct, Divide, DivideProject and
// AddHist over h to the same operations computed on its model m.
func checkAlgebra(t *testing.T, what string, rng *rand.Rand, h *Histogram, m model, pool []int64) {
	t.Helper()
	arity := h.arity()
	// Marginal onto a random subset of the attributes.
	var keep []int
	for i := 0; i < arity; i++ {
		if rng.Intn(2) == 0 {
			keep = append(keep, i)
		}
	}
	sub := make([]workflow.Attr, len(keep))
	for i, p := range keep {
		sub[i] = h.Attrs[p]
	}
	project := func(vals []int64) []int64 {
		proj := make([]int64, len(keep))
		for i, p := range keep {
			proj[i] = vals[p]
		}
		return proj
	}
	marg := model{}
	for k, f := range m {
		marg.inc(project(modelVals(k)), f)
	}
	got, err := h.Marginal(sub...)
	if err != nil {
		t.Fatalf("%s: Marginal: %v", what, err)
	}
	checkModel(t, what+" Marginal", got, marg)

	// AddHist with a second histogram over the same attributes, sharing
	// some buckets and cancelling others.
	m2 := model{}
	for k, f := range m {
		switch rng.Intn(3) {
		case 0:
			m2.inc(modelVals(k), -f)
		case 1:
			m2.inc(modelVals(k), int64(rng.Intn(4)+1))
		}
	}
	sum := model{}
	for _, mm := range []model{m, m2} {
		for k, f := range mm {
			sum.inc(modelVals(k), f)
		}
	}
	added, err := AddHist(h, m2.histOf(h.Attrs))
	if err != nil {
		t.Fatalf("%s: AddHist: %v", what, err)
	}
	checkModel(t, what+" AddHist", added, sum)

	// Divide and DivideProject: scale each bucket by a positive
	// denominator at its projection, then divide it back out.
	den := model{}
	for k := range m {
		if proj := project(modelVals(k)); den[modelKey(proj)] == 0 {
			den.inc(proj, int64(1+rng.Intn(4)))
		}
	}
	num := model{}
	for k, f := range m {
		vals := modelVals(k)
		num.inc(vals, f*den[modelKey(project(vals))])
	}
	back, err := DivideProject(num.histOf(h.Attrs), den.histOf(sub))
	if err != nil {
		t.Fatalf("%s: DivideProject: %v", what, err)
	}
	checkModel(t, what+" DivideProject", back, m)
	if len(keep) == arity {
		back, err := Divide(num.histOf(h.Attrs), den.histOf(sub))
		if err != nil {
			t.Fatalf("%s: Divide: %v", what, err)
		}
		checkModel(t, what+" Divide", back, m)
	}

	if arity == 0 {
		return
	}
	// Join with a right side over (a, d) and DotProduct of the a
	// marginals; the right side's a-values come from the same pool.
	join := h.Attrs[0]
	right := model{}
	for n := rng.Intn(200); len(right) < n; {
		right.inc([]int64{pool[rng.Intn(len(pool))], int64(rng.Intn(5))}, int64(1+rng.Intn(3)))
	}
	h2 := right.histOf([]workflow.Attr{join, modelOther})
	candidates := append(slices.Clone(h.Attrs), modelOther)
	var out []workflow.Attr
	for _, a := range candidates {
		if rng.Intn(2) == 0 {
			out = append(out, a)
		}
	}
	out = workflow.SortAttrs(out)
	src := func(a workflow.Attr, v1, v2 []int64) int64 {
		if a == modelOther {
			return v2[1]
		}
		return v1[slices.Index(h.Attrs, a)]
	}
	type bucket struct {
		vals []int64
		f    int64
	}
	var rights []bucket
	for k, f := range right {
		rights = append(rights, bucket{modelVals(k), f})
	}
	joined := model{}
	var dot int64
	for k1, f1 := range m {
		v1 := modelVals(k1)
		for _, r := range rights {
			if v1[0] != r.vals[0] {
				continue
			}
			dot += f1 * r.f
			vals := make([]int64, len(out))
			for i, a := range out {
				vals[i] = src(a, v1, r.vals)
			}
			joined.inc(vals, f1*r.f)
		}
	}
	gotJoin, err := Join(h, h2, join, out)
	if err != nil {
		t.Fatalf("%s: Join: %v", what, err)
	}
	checkModel(t, what+" Join", gotJoin, joined)

	l, err := h.Marginal(join)
	if err != nil {
		t.Fatalf("%s: Marginal: %v", what, err)
	}
	r, err := h2.Marginal(join)
	if err != nil {
		t.Fatalf("%s: Marginal: %v", what, err)
	}
	if got, err := DotProduct(l, r); err != nil || got != dot {
		t.Fatalf("%s: DotProduct = %d, %v; want %d", what, got, err, dot)
	}
}

// TestHistogramAllocs pins the flat layout's allocation profile: reads and
// an increment of an existing bucket allocate nothing, and Marginal and a
// key join (the right side holds one bucket per join value) allocate per
// call, the same at 100 buckets as at 10,000.
func TestHistogramAllocs(t *testing.T) {
	build := func(n int) (ab, a *Histogram) {
		ab, a = NewHistogram(aA, aB), NewHistogram(aA)
		for i := 0; i < n; i++ {
			ab.Inc([]int64{int64(i % (n / 4)), int64(i)}, int64(1+i%3))
		}
		for i := 0; i < n/4; i++ {
			a.Inc([]int64{int64(i)}, 2)
		}
		return ab, a
	}
	ab, a := build(1000)
	vals := []int64{7}
	var sink int64
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Freq", func() { sink += a.Freq(7) + ab.Freq(3, 3) }},
		{"Each", func() { a.Each(func(_ []int64, f int64) { sink += f }) }},
		{"DotProduct", func() { d, _ := DotProduct(a, a); sink += d }},
		{"Inc existing", func() { a.Inc(vals, 1) }},
	} {
		if got := testing.AllocsPerRun(20, c.f); got != 0 {
			t.Errorf("%s allocates %.0f times, want 0", c.name, got)
		}
	}
	// No collection while measuring: under -race a cycle allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ops := func(n int) (marginal, join float64) {
		ab, a := build(n)
		marginal = testing.AllocsPerRun(5, func() { ab.Marginal(aA) })
		join = testing.AllocsPerRun(5, func() { Join(ab, a, aA, []workflow.Attr{aA, aB}) })
		return marginal, join
	}
	m100, j100 := ops(100)
	m10k, j10k := ops(10_000)
	if m100 != m10k || j100 != j10k {
		t.Errorf("allocations per call at 100 / 10,000 buckets: Marginal %.0f / %.0f, Join %.0f / %.0f; want equal",
			m100, m10k, j100, j10k)
	}
}

// TestHistogramConcurrentReads reads one stored histogram from 8
// goroutines through every read path; under -race it is the check that
// reads write nothing to the histogram.
func TestHistogramConcurrentReads(t *testing.T) {
	st := NewStore()
	s := NewHist(BlockSE(0, expr.NewSet(0)), aA, aB)
	h := NewHistogram(aA, aB)
	for i := 0; i < 2000; i++ {
		h.Inc([]int64{int64(i % 97), int64(i % 13)}, 1)
	}
	if err := st.Put(&Value{Stat: s, Hist: h}); err != nil {
		t.Fatal(err)
	}
	v, _ := st.Get(s)
	shared := v.Hist
	right := NewHistogram(aA, aC)
	for i := 0; i < 300; i++ {
		right.Inc([]int64{int64(i % 50), int64(i % 7)}, 1)
	}
	read := func() string {
		var sum int64
		shared.Each(func(vals []int64, f int64) { sum += f * shared.Freq(vals...) })
		m, err := shared.Marginal(aA)
		if err != nil {
			return err.Error()
		}
		dot, err := DotProduct(m, m)
		if err != nil {
			return err.Error()
		}
		j, err := Join(shared, right, aA, []workflow.Attr{aB, aC})
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("%d %d %s", sum, dot, histString(j))
	}
	want := read()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := read(); got != want {
					t.Errorf("a concurrent read differs from the serial one")
					return
				}
			}
		}()
	}
	wg.Wait()
}
