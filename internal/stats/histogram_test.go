package stats

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/essential-stats/etlopt/internal/workflow"
)

var (
	aA = workflow.Attr{Rel: "T1", Col: "a"}
	aB = workflow.Attr{Rel: "T1", Col: "b"}
	aC = workflow.Attr{Rel: "T2", Col: "c"}
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(aA)
	h.Add(1)
	h.Add(1)
	h.Add(2)
	if got := h.Freq(1); got != 2 {
		t.Fatalf("Freq(1) = %d, want 2", got)
	}
	if got := h.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
	if got := h.Buckets(); got != 2 {
		t.Fatalf("Buckets = %d, want 2", got)
	}
	h.Inc([]int64{2}, -1)
	if got := h.Buckets(); got != 1 {
		t.Fatalf("Buckets after removal = %d, want 1", got)
	}
}

func TestHistogramArityError(t *testing.T) {
	err := NewHistogram(aA).Add(1, 2)
	if err == nil {
		t.Fatal("Add with wrong arity should error")
	}
	var ae *arityError
	if !errors.As(err, &ae) || ae.Want != 1 || ae.Got != 2 {
		t.Fatalf("want *ArityError{1,2}, got %v", err)
	}
}

func TestHistogramAttrsCanonicalOrder(t *testing.T) {
	h := NewHistogram(aB, aA) // constructor sorts
	if h.Attrs[0] != aA || h.Attrs[1] != aB {
		t.Fatalf("Attrs = %v, want sorted [a b]", h.Attrs)
	}
}

func TestMarginal(t *testing.T) {
	h := NewHistogram(aA, aB)
	h.Add(1, 10)
	h.Add(1, 20)
	h.Add(2, 10)
	m, err := h.Marginal(aA)
	if err != nil {
		t.Fatalf("Marginal: %v", err)
	}
	if m.Freq(1) != 2 || m.Freq(2) != 1 {
		t.Fatalf("Marginal freqs wrong: %v", histString(m))
	}
	if m.Total() != h.Total() {
		t.Fatalf("Marginal total %d != %d", m.Total(), h.Total())
	}
	if _, err := h.Marginal(aC); err == nil {
		t.Fatal("Marginal over missing attr: want error")
	}
}

func TestDotProductMatchesJoin(t *testing.T) {
	// |T1 ⋈ T2| computed by J1 must equal the brute-force join size.
	rng := rand.New(rand.NewSource(7))
	h1 := NewHistogram(aA)
	h2 := NewHistogram(aA)
	var t1, t2 []int64
	for i := 0; i < 500; i++ {
		v := int64(rng.Intn(20))
		t1 = append(t1, v)
		h1.Add(v)
	}
	for i := 0; i < 300; i++ {
		v := int64(rng.Intn(20))
		t2 = append(t2, v)
		h2.Add(v)
	}
	var brute int64
	for _, x := range t1 {
		for _, y := range t2 {
			if x == y {
				brute++
			}
		}
	}
	got, err := DotProduct(h1, h2)
	if err != nil {
		t.Fatalf("DotProduct: %v", err)
	}
	if got != brute {
		t.Fatalf("DotProduct = %d, brute force = %d", got, brute)
	}
}

func TestDotProductArityError(t *testing.T) {
	h1 := NewHistogram(aA, aB)
	h2 := NewHistogram(aA)
	if _, err := DotProduct(h1, h2); err == nil {
		t.Fatal("DotProduct with multi-attr input: want error")
	}
}

// twoTables builds random tables T1(a,b) and T2(a,c) plus their exact
// histograms, for cross-checking the algebra against brute-force joins.
func twoTables(seed int64, n1, n2 int) (rows1, rows2 [][2]int64, h1ab, h1a, h2ac, h2a *Histogram) {
	rng := rand.New(rand.NewSource(seed))
	h1ab = NewHistogram(aA, aB)
	h1a = NewHistogram(aA)
	h2ac = NewHistogram(aA, aC)
	h2a = NewHistogram(aA)
	for i := 0; i < n1; i++ {
		a, b := int64(rng.Intn(10)), int64(rng.Intn(5))
		rows1 = append(rows1, [2]int64{a, b})
		h1ab.Add(a, b)
		h1a.Add(a)
	}
	for i := 0; i < n2; i++ {
		a, c := int64(rng.Intn(10)), int64(rng.Intn(4))
		rows2 = append(rows2, [2]int64{a, c})
		h2ac.Add(a, c)
		h2a.Add(a)
	}
	return
}

func TestJoinRuleJ2(t *testing.T) {
	// H^b of T1 ⋈a T2 from H^{a,b}_{T1} and H^a_{T2} (rule J2).
	rows1, rows2, h1ab, _, _, h2a := twoTables(11, 400, 250)
	got, err := Join(h1ab, h2a, aA, []workflow.Attr{aB})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	want := NewHistogram(aB)
	for _, r1 := range rows1 {
		for _, r2 := range rows2 {
			if r1[0] == r2[0] {
				want.Add(r1[1])
			}
		}
	}
	assertHistEqual(t, got, want)
}

func TestJoinRuleJ3(t *testing.T) {
	// H^a of T1 ⋈a T2 is the bucket-wise product (rule J3).
	rows1, rows2, _, h1a, _, h2a := twoTables(13, 300, 200)
	got, err := Join(h1a, h2a, aA, []workflow.Attr{aA})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	want := NewHistogram(aA)
	for _, r1 := range rows1 {
		for _, r2 := range rows2 {
			if r1[0] == r2[0] {
				want.Add(r1[0])
			}
		}
	}
	assertHistEqual(t, got, want)
}

func TestJoinCrossSideOutputs(t *testing.T) {
	// Generalized J2: output attributes drawn from both sides at once.
	rows1, rows2, h1ab, _, h2ac, _ := twoTables(17, 200, 150)
	got, err := Join(h1ab, h2ac, aA, []workflow.Attr{aB, aC})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	want := NewHistogram(aB, aC)
	for _, r1 := range rows1 {
		for _, r2 := range rows2 {
			if r1[0] == r2[0] {
				want.Add(r1[1], r2[1])
			}
		}
	}
	assertHistEqual(t, got, want)
}

func TestJoinErrors(t *testing.T) {
	h1 := NewHistogram(aA, aB)
	h2 := NewHistogram(aA)
	if _, err := Join(h1, h2, aC, []workflow.Attr{aB}); err == nil {
		t.Fatal("Join on attr absent from inputs: want error")
	}
	if _, err := Join(h1, h2, aA, []workflow.Attr{aC}); err == nil {
		t.Fatal("Join with output attr in neither input: want error")
	}
}

func TestMultiplyDivideRoundTrip(t *testing.T) {
	f := func(freqs []uint8) bool {
		h1 := NewHistogram(aA)
		h2 := NewHistogram(aA)
		for i, fq := range freqs {
			if fq == 0 {
				continue
			}
			h1.Inc([]int64{int64(i)}, int64(fq))
			h2.Inc([]int64{int64(i)}, int64(fq%7)+1)
		}
		// Rule J3 is the bucket-wise product ⟨H1|H2⟩.
		prod, err := Join(h1, h2, aA, []workflow.Attr{aA})
		if err != nil {
			return false
		}
		back, err := Divide(prod, h2)
		if err != nil {
			return false
		}
		return histEqual(back, h1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDivideErrors(t *testing.T) {
	h1 := NewHistogram(aA)
	h1.Add(1)
	h2 := NewHistogram(aA) // empty: zero denominator
	if _, err := Divide(h1, h2); err == nil {
		t.Fatal("Divide by zero bucket: want error")
	}
	h3 := NewHistogram(aA)
	h3.Inc([]int64{1}, 2)
	if _, err := Divide(h1, h3); err == nil {
		t.Fatal("Divide with non-divisible bucket: want error")
	}
	hb := NewHistogram(aB)
	if _, err := Divide(h1, hb); err == nil {
		t.Fatal("Divide with mismatched attrs: want error")
	}
}

func TestDivideProject(t *testing.T) {
	// Numerator over (a,b), denominator over (a): per-bucket divide on a.
	num := NewHistogram(aA, aB)
	num.Inc([]int64{1, 10}, 6)
	num.Inc([]int64{1, 20}, 4)
	num.Inc([]int64{2, 10}, 9)
	den := NewHistogram(aA)
	den.Inc([]int64{1}, 2)
	den.Inc([]int64{2}, 3)
	got, err := DivideProject(num, den)
	if err != nil {
		t.Fatalf("DivideProject: %v", err)
	}
	if got.Freq(1, 10) != 3 || got.Freq(1, 20) != 2 || got.Freq(2, 10) != 3 {
		t.Fatalf("DivideProject wrong: %v", histString(got))
	}
	// Union–division consistency: Join then DivideProject recovers the
	// original joint distribution.
	_, _, h1ab, _, _, h2a := twoTables(23, 300, 200)
	joined, err := Join(h1ab, h2a, aA, []workflow.Attr{aA, aB})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	// joined^(a,b) = h1ab ⊙ h2a on a; dividing by h2a recovers the
	// restriction of h1ab to a-values present in T2.
	back, err := DivideProject(joined, h2a)
	if err != nil {
		t.Fatalf("DivideProject: %v", err)
	}
	want := NewHistogram(aA, aB)
	h1ab.Each(func(vals []int64, f int64) {
		if h2a.Freq(vals[0]) > 0 {
			want.Inc(vals, f)
		}
	})
	assertHistEqual(t, back, want)
}

func TestAddHist(t *testing.T) {
	h1 := NewHistogram(aA)
	h1.Add(1)
	h2 := NewHistogram(aA)
	h2.Add(1)
	h2.Add(2)
	sum, err := AddHist(h1, h2)
	if err != nil {
		t.Fatalf("AddHist: %v", err)
	}
	if sum.Freq(1) != 2 || sum.Freq(2) != 1 {
		t.Fatalf("AddHist wrong: %v", histString(sum))
	}
	hb := NewHistogram(aB)
	if _, err := AddHist(h1, hb); err == nil {
		t.Fatal("AddHist with mismatched attrs: want error")
	}
}

func TestMarginalTotalProperty(t *testing.T) {
	// I1: |T| equals the total of any marginal.
	f := func(pairs []uint16) bool {
		h := NewHistogram(aA, aB)
		for _, p := range pairs {
			h.Add(int64(p%16), int64(p/16%8))
		}
		m, err := h.Marginal(aB)
		if err != nil {
			return false
		}
		return m.Total() == h.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeValuesRoundTrip(t *testing.T) {
	// Value encoding must be loss-free for negative values too.
	h := NewHistogram(aA)
	h.Add(-42)
	found := false
	h.Each(func(vals []int64, f int64) {
		if vals[0] == -42 && f == 1 {
			found = true
		}
	})
	if !found {
		t.Fatal("negative value lost in encoding")
	}
}

func TestEachSortedDeterministic(t *testing.T) {
	h := NewHistogram(aA)
	for _, v := range []int64{5, 3, 9, 1} {
		h.Add(v)
	}
	var got []int64
	h.eachSorted(func(vals []int64, _ int64) { got = append(got, vals[0]) })
	want := []int64{1, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EachSorted order = %v, want %v", got, want)
		}
	}
}

// histString renders the buckets in eachSorted order.
func histString(h *Histogram) string {
	var sb strings.Builder
	h.eachSorted(func(vals []int64, f int64) { fmt.Fprintf(&sb, "%v:%d ", vals, f) })
	return sb.String()
}

func histEqual(a, b *Histogram) bool {
	return slices.Equal(a.Attrs, b.Attrs) && histString(a) == histString(b)
}

func assertHistEqual(t *testing.T, got, want *Histogram) {
	t.Helper()
	if !histEqual(got, want) {
		t.Fatalf("histograms differ:\n got: %v\nwant: %v", histString(got), histString(want))
	}
}
