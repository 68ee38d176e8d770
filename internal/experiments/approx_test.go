package experiments

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestBucketSpec(t *testing.T) {
	spec := newBucketSpec(1, 100, 10)
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
	small := newBucketSpec(1, 5, 100)
	if small.N != 5 {
		t.Fatalf("N = %d, want 5", small.N)
	}
	// Swapped bounds normalize.
	sw := newBucketSpec(10, 1, 3)
	if sw.Lo != 1 || sw.Hi != 10 {
		t.Fatalf("swapped bounds not normalized: %+v", sw)
	}
}

// TestBucketSpecExtremeDomains: hi-lo+1 overflows int64 for extreme
// domains; the spec must keep the requested bucket count, a positive
// finite width, and well-ordered bucketing rather than clamping N through
// a wrapped (negative) size.
func TestBucketSpecExtremeDomains(t *testing.T) {
	specs := []bucketSpec{
		newBucketSpec(math.MinInt64, math.MaxInt64, 10), // full int64 domain
		newBucketSpec(math.MinInt64, 0, 7),              // hi-lo+1 = MinInt64 (wraps)
		newBucketSpec(math.MinInt64, -2, 5),
		newBucketSpec(-1, math.MaxInt64, 4),
		newBucketSpec(0, math.MaxInt64, 16), // size = MaxInt64+1 (wraps)
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
		s := newBucketSpec(v, v, 42)
		if s.N != 1 {
			t.Fatalf("single-value domain at %d: N = %d, want 1", v, s.N)
		}
		if s.bucket(v) != 0 {
			t.Fatalf("single-value domain at %d: Bucket = %d", v, s.bucket(v))
		}
	}

	// Non-positive requested counts still clamp up to 1.
	if s := newBucketSpec(math.MinInt64, math.MaxInt64, -3); s.N != 1 {
		t.Fatalf("negative N on extreme domain: N = %d, want 1", s.N)
	}
}

func TestBucketizeAndTotals(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	h := stats.NewHistogram(a)
	for v := int64(1); v <= 100; v++ {
		h.Inc([]int64{v}, v%3+1)
	}
	spec := newBucketSpec(1, 100, 4)
	ap, err := bucketize(h, spec)
	if err != nil {
		t.Fatalf("bucketize: %v", err)
	}
	if total(ap) != float64(h.Total()) {
		t.Fatalf("Total = %v, want %v", total(ap), h.Total())
	}
	if ap.memory() != 4 {
		t.Fatalf("Memory = %d, want 4", ap.memory())
	}
	h2 := stats.NewHistogram(a, workflow.Attr{Rel: "T", Col: "b"})
	if _, err := bucketize(h2, spec); err == nil {
		t.Fatal("bucketize of 2-attr histogram: want error")
	}
}

func TestApproxDotProductExactAtFullResolution(t *testing.T) {
	// One bucket per value ⇒ the approximate estimate equals rule J1.
	a := workflow.Attr{Rel: "T", Col: "a"}
	rng := rand.New(rand.NewSource(5))
	h1 := stats.NewHistogram(a)
	h2 := stats.NewHistogram(a)
	for i := 0; i < 3000; i++ {
		h1.Add(int64(rng.Intn(50) + 1))
		h2.Add(int64(rng.Intn(50) + 1))
	}
	spec := newBucketSpec(1, 50, 50)
	a1, _ := bucketize(h1, spec)
	a2, _ := bucketize(h2, spec)
	est, err := approxDotProduct(a1, a2)
	if err != nil {
		t.Fatalf("approxDotProduct: %v", err)
	}
	exact, _ := stats.DotProduct(h1, h2)
	if math.Abs(est-float64(exact)) > 1e-6 {
		t.Fatalf("full-resolution estimate %v != exact %v", est, exact)
	}
}

func TestApproxErrorShrinksWithBuckets(t *testing.T) {
	// On skewed data the estimate improves monotonically-ish as buckets
	// grow; at least the coarsest must be worse than the finest.
	a := workflow.Attr{Rel: "T", Col: "a"}
	rng := rand.New(rand.NewSource(9))
	h1 := stats.NewHistogram(a)
	h2 := stats.NewHistogram(a)
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(100)*rng.Intn(100)/100 + 1) // skewed toward low values
		h1.Add(v)
		h2.Add(int64(rng.Intn(100) + 1))
	}
	exact, _ := stats.DotProduct(h1, h2)
	var errs []float64
	for _, n := range []int{2, 100} {
		spec := newBucketSpec(1, 100, n)
		a1, _ := bucketize(h1, spec)
		a2, _ := bucketize(h2, spec)
		est, err := approxDotProduct(a1, a2)
		if err != nil {
			t.Fatalf("approxDotProduct(%d): %v", n, err)
		}
		errs = append(errs, relativeError(est, exact))
	}
	if errs[1] > errs[0] {
		t.Fatalf("error grew with resolution: %v", errs)
	}
	if errs[1] > 1e-9 {
		t.Fatalf("full resolution should be exact, err = %v", errs[1])
	}
}

func TestApproxSpecMismatch(t *testing.T) {
	a1 := newBucketized(newBucketSpec(1, 10, 2))
	a2 := newBucketized(newBucketSpec(1, 20, 2))
	if _, err := approxDotProduct(a1, a2); err == nil {
		t.Fatal("mismatched specs: want error")
	}
}

// total sums a bucketized histogram's frequencies (= |T| when observed on T).
func total(a *bucketized) float64 {
	var t float64
	for _, f := range a.Totals {
		t += f
	}
	return t
}

func TestBucketizeEquiWidth(t *testing.T) {
	h := stats.NewHistogram(workflow.Attr{Rel: "T", Col: "a"})
	for v := int64(1); v <= 10; v++ {
		h.Add(v)
	}
	ap, err := bucketize(h, newBucketSpec(1, 10, 5))
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
	if relativeError(110, 100) != 0.1 {
		t.Fatal("basic relative error wrong")
	}
	if relativeError(0, 0) != 0 {
		t.Fatal("0/0 should be 0")
	}
	if !math.IsInf(relativeError(5, 0), 1) {
		t.Fatal("x/0 should be +Inf")
	}
}

func TestBucketTotalPreservationProperty(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	f := func(vals []uint8, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		h := stats.NewHistogram(a)
		for _, v := range vals {
			h.Add(int64(v%50) + 1)
		}
		spec := newBucketSpec(1, 50, n)
		ap, err := bucketize(h, spec)
		if err != nil {
			return false
		}
		return total(ap) == float64(h.Total())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
