package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestBucketSpec(t *testing.T) {
	spec := NewBucketSpec(1, 100, 10)
	if spec.N != 10 || spec.width() != 10 {
		t.Fatalf("spec = %+v width %v", spec, spec.width())
	}
	if spec.bucket(1) != 0 || spec.bucket(10) != 0 || spec.bucket(11) != 1 || spec.bucket(100) != 9 {
		t.Fatalf("bucket boundaries wrong: %d %d %d %d",
			spec.bucket(1), spec.bucket(10), spec.bucket(11), spec.bucket(100))
	}
	// Out-of-range clamps.
	if spec.bucket(-5) != 0 || spec.bucket(1000) != 9 {
		t.Fatal("clamping broken")
	}
	// More buckets than values collapses to the domain size.
	small := NewBucketSpec(1, 5, 100)
	if small.N != 5 {
		t.Fatalf("N = %d, want 5", small.N)
	}
	// Swapped bounds normalize.
	sw := NewBucketSpec(10, 1, 3)
	if sw.Lo != 1 || sw.Hi != 10 {
		t.Fatalf("swapped bounds not normalized: %+v", sw)
	}
}

// TestBucketSpecExtremeDomains: hi-lo+1 overflows int64 for extreme
// domains; the spec must keep the requested bucket count, a positive
// finite width, and well-ordered bucketing rather than clamping N through
// a wrapped (negative) size.
func TestBucketSpecExtremeDomains(t *testing.T) {
	specs := []BucketSpec{
		NewBucketSpec(math.MinInt64, math.MaxInt64, 10), // full int64 domain
		NewBucketSpec(math.MinInt64, 0, 7),              // hi-lo+1 = MinInt64 (wraps)
		NewBucketSpec(math.MinInt64, -2, 5),
		NewBucketSpec(-1, math.MaxInt64, 4),
		NewBucketSpec(0, math.MaxInt64, 16), // size = MaxInt64+1 (wraps)
	}
	wantN := []int{10, 7, 5, 4, 16}
	for i, spec := range specs {
		if spec.N != wantN[i] {
			t.Fatalf("spec %d: N = %d, want %d (overflowed clamp?)", i, spec.N, wantN[i])
		}
		w := spec.width()
		if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
			t.Fatalf("spec %d: width = %v", i, w)
		}
		if got := spec.bucket(spec.Lo); got != 0 {
			t.Fatalf("spec %d: Bucket(Lo) = %d, want 0", i, got)
		}
		if got := spec.bucket(spec.Hi); got != spec.N-1 {
			t.Fatalf("spec %d: Bucket(Hi) = %d, want %d", i, got, spec.N-1)
		}
		// Bucketing is monotone and in range across the domain.
		probes := []int64{spec.Lo, spec.Lo + 1, spec.Lo/2 + spec.Hi/2, spec.Hi - 1, spec.Hi}
		prev := 0
		for _, v := range probes {
			idx := spec.bucket(v)
			if idx < 0 || idx >= spec.N {
				t.Fatalf("spec %d: Bucket(%d) = %d out of [0,%d)", i, v, idx, spec.N)
			}
			if idx < prev {
				t.Fatalf("spec %d: bucketing not monotone at %d: %d < %d", i, v, idx, prev)
			}
			prev = idx
		}
	}

	// Degenerate single-value domains at the extremes collapse to one
	// bucket.
	for _, v := range []int64{math.MinInt64, math.MaxInt64, 0} {
		s := NewBucketSpec(v, v, 42)
		if s.N != 1 {
			t.Fatalf("single-value domain at %d: N = %d, want 1", v, s.N)
		}
		if s.bucket(v) != 0 {
			t.Fatalf("single-value domain at %d: Bucket = %d", v, s.bucket(v))
		}
	}

	// Non-positive requested counts still clamp up to 1.
	if s := NewBucketSpec(math.MinInt64, math.MaxInt64, -3); s.N != 1 {
		t.Fatalf("negative N on extreme domain: N = %d, want 1", s.N)
	}
}

func TestSubInt64(t *testing.T) {
	cases := []struct {
		a, b int64
		want int64
		err  bool
	}{
		{5, 3, 2, false},
		{3, 5, -2, false},
		{math.MaxInt64, math.MaxInt64, 0, false},
		{math.MinInt64, math.MinInt64, 0, false},
		{math.MaxInt64, math.MinInt64, 0, true},
		{math.MinInt64, math.MaxInt64, 0, true},
		{math.MinInt64, 1, 0, true},
		{0, math.MinInt64, 0, true},
		{-2, math.MaxInt64, 0, true},
		{math.MaxInt64, -1, 0, true},
		{math.MaxInt64 - 1, -1, math.MaxInt64, false},
	}
	for _, c := range cases {
		got, err := subInt64(c.a, c.b)
		if c.err {
			if err == nil {
				t.Errorf("SubInt64(%d, %d): want overflow, got %d", c.a, c.b, got)
			} else if !errors.Is(err, errOverflow) {
				t.Errorf("SubInt64(%d, %d): error not tagged ErrOverflow: %v", c.a, c.b, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("SubInt64(%d, %d) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}

func TestBucketizeAndTotals(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	h := NewHistogram(a)
	for v := int64(1); v <= 100; v++ {
		h.Inc([]int64{v}, v%3+1)
	}
	spec := NewBucketSpec(1, 100, 4)
	ap, err := Bucketize(h, spec)
	if err != nil {
		t.Fatalf("Bucketize: %v", err)
	}
	if total(ap) != float64(h.Total()) {
		t.Fatalf("Total = %v, want %v", total(ap), h.Total())
	}
	if ap.Memory() != 4 {
		t.Fatalf("Memory = %d, want 4", ap.Memory())
	}
	h2 := NewHistogram(a, workflow.Attr{Rel: "T", Col: "b"})
	if _, err := Bucketize(h2, spec); err == nil {
		t.Fatal("Bucketize of 2-attr histogram: want error")
	}
}

func TestApproxDotProductExactAtFullResolution(t *testing.T) {
	// One bucket per value ⇒ the approximate estimate equals rule J1.
	a := workflow.Attr{Rel: "T", Col: "a"}
	rng := rand.New(rand.NewSource(5))
	h1 := NewHistogram(a)
	h2 := NewHistogram(a)
	for i := 0; i < 3000; i++ {
		h1.Add(int64(rng.Intn(50) + 1))
		h2.Add(int64(rng.Intn(50) + 1))
	}
	spec := NewBucketSpec(1, 50, 50)
	a1, _ := Bucketize(h1, spec)
	a2, _ := Bucketize(h2, spec)
	est, err := ApproxDotProduct(a1, a2)
	if err != nil {
		t.Fatalf("ApproxDotProduct: %v", err)
	}
	exact, _ := DotProduct(h1, h2)
	if math.Abs(est-float64(exact)) > 1e-6 {
		t.Fatalf("full-resolution estimate %v != exact %v", est, exact)
	}
}

func TestApproxErrorShrinksWithBuckets(t *testing.T) {
	// On skewed data the estimate improves monotonically-ish as buckets
	// grow; at least the coarsest must be worse than the finest.
	a := workflow.Attr{Rel: "T", Col: "a"}
	rng := rand.New(rand.NewSource(9))
	h1 := NewHistogram(a)
	h2 := NewHistogram(a)
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(100)*rng.Intn(100)/100 + 1) // skewed toward low values
		h1.Add(v)
		h2.Add(int64(rng.Intn(100) + 1))
	}
	exact, _ := DotProduct(h1, h2)
	var errs []float64
	for _, n := range []int{2, 100} {
		spec := NewBucketSpec(1, 100, n)
		a1, _ := Bucketize(h1, spec)
		a2, _ := Bucketize(h2, spec)
		est, err := ApproxDotProduct(a1, a2)
		if err != nil {
			t.Fatalf("ApproxDotProduct(%d): %v", n, err)
		}
		errs = append(errs, RelativeError(est, exact))
	}
	if errs[1] > errs[0] {
		t.Fatalf("error grew with resolution: %v", errs)
	}
	if errs[1] > 1e-9 {
		t.Fatalf("full resolution should be exact, err = %v", errs[1])
	}
}

func TestApproxSpecMismatch(t *testing.T) {
	a1 := newApprox(NewBucketSpec(1, 10, 2))
	a2 := newApprox(NewBucketSpec(1, 20, 2))
	if _, err := ApproxDotProduct(a1, a2); err == nil {
		t.Fatal("mismatched specs: want error")
	}
}

// total sums a bucketized histogram's frequencies (= |T| when observed on T).
func total(a *Approx) float64 {
	var t float64
	for _, f := range a.Totals {
		t += f
	}
	return t
}

func TestBucketizeEquiWidth(t *testing.T) {
	h := NewHistogram(workflow.Attr{Rel: "T", Col: "a"})
	for v := int64(1); v <= 10; v++ {
		h.Add(v)
	}
	ap, err := Bucketize(h, NewBucketSpec(1, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if total(ap) != 10 {
		t.Fatalf("Total = %v", total(ap))
	}
	for i, f := range ap.Totals {
		if f != 2 {
			t.Fatalf("bucket %d = %v, want 2", i, f)
		}
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(110, 100) != 0.1 {
		t.Fatal("basic relative error wrong")
	}
	if RelativeError(0, 0) != 0 {
		t.Fatal("0/0 should be 0")
	}
	if !math.IsInf(RelativeError(5, 0), 1) {
		t.Fatal("x/0 should be +Inf")
	}
}

func TestBucketTotalPreservationProperty(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	f := func(vals []uint8, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		h := NewHistogram(a)
		for _, v := range vals {
			h.Add(int64(v%50) + 1)
		}
		spec := NewBucketSpec(1, 50, n)
		ap, err := Bucketize(h, spec)
		if err != nil {
			return false
		}
		return total(ap) == float64(h.Total())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
