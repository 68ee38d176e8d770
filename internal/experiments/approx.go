package experiments

import (
	"fmt"
	"math"

	"github.com/essential-stats/etlopt/internal/stats"
)

// This file implements the bucketized-histogram extension the paper leaves
// as future work (Sections 3.1 and 8): real systems cap histogram memory by
// grouping values into equi-width buckets and storing only per-bucket
// totals, trading exactness for space. The approximate algebra below is
// the error-vs-memory experiment's own (-exp=error); the product keeps
// exact histograms only.

// bucketSpec describes an equi-width bucketization of an integer value
// domain [Lo, Hi] into N buckets.
type bucketSpec struct {
	Lo, Hi int64
	N      int
}

// maxInt is the largest value of the platform's int (the bucket count's
// type), so 32-bit targets clamp correctly too.
const maxInt = int64(^uint(0) >> 1)

// newBucketSpec builds an equi-width spec; it clamps N to at least 1 and at
// most the domain size (more buckets than values adds nothing). The domain
// size hi-lo+1 is computed without wrapping: for extreme domains (e.g.
// Lo = math.MinInt64) it overflows int64 — and would truncate through int
// on 32-bit targets — and such domains are simply larger than any bucket
// count, so no clamping applies.
func newBucketSpec(lo, hi int64, n int) bucketSpec {
	if hi < lo {
		lo, hi = hi, lo
	}
	if n < 1 {
		n = 1
	}
	if size, ok := domainSize(lo, hi); ok && int64(n) > size {
		n = int(size)
	}
	return bucketSpec{Lo: lo, Hi: hi, N: n}
}

// domainSize returns hi-lo+1 (hi >= lo) when it fits the platform int; ok
// is false for domains too large to matter for clamping.
func domainSize(lo, hi int64) (int64, bool) {
	span := uint64(hi) - uint64(lo) // exact, like span below
	if span >= uint64(maxInt) {
		return 0, false
	}
	return int64(span) + 1, true
}

// span returns hi-lo as an exact unsigned difference (hi >= lo after the
// constructor's swap), which cannot overflow the way int64 subtraction can.
func (b bucketSpec) span() uint64 {
	return uint64(b.Hi) - uint64(b.Lo)
}

// width returns the (fractional) width of each bucket.
func (b bucketSpec) width() float64 {
	return (float64(b.span()) + 1) / float64(b.N)
}

// bucket maps a value to its bucket index (values outside the range clamp
// to the edge buckets, as real histogram implementations do).
func (b bucketSpec) bucket(v int64) int {
	if v < b.Lo {
		return 0
	}
	if v > b.Hi {
		return b.N - 1
	}
	off := uint64(v) - uint64(b.Lo)
	idx := int(float64(off) / b.width())
	if idx >= b.N {
		idx = b.N - 1
	}
	return idx
}

// bucketized is a single-attribute histogram: per-bucket total
// frequencies under the uniform-within-bucket assumption. Its memory
// footprint is Spec.N counters regardless of the attribute domain.
type bucketized struct {
	Spec   bucketSpec
	Totals []float64
}

// newBucketized returns an empty bucketized histogram.
func newBucketized(spec bucketSpec) *bucketized {
	return &bucketized{Spec: spec, Totals: make([]float64, spec.N)}
}

// bucketize compresses an exact single-attribute histogram into buckets.
func bucketize(h *stats.Histogram, spec bucketSpec) (*bucketized, error) {
	if len(h.Attrs) != 1 {
		return nil, fmt.Errorf("stats: bucketize needs a single-attribute histogram, got arity %d", len(h.Attrs))
	}
	a := newBucketized(spec)
	h.Each(func(vals []int64, f int64) {
		a.Totals[spec.bucket(vals[0])] += float64(f)
	})
	return a, nil
}

// memory returns the footprint in integer units (one per bucket).
func (a *bucketized) memory() int64 { return int64(a.Spec.N) }

// approxDotProduct estimates |T1 ⋈a T2| from two bucketized histograms over
// the same spec: within each bucket, values are assumed uniformly spread
// over the bucket's width, so the expected number of matching pairs is
// f1·f2/width — the classical equi-width join estimate. Compare rule J1,
// which is exact when the buckets are single values.
func approxDotProduct(a1, a2 *bucketized) (float64, error) {
	if a1.Spec != a2.Spec {
		return 0, fmt.Errorf("stats: bucket specs differ: %+v vs %+v", a1.Spec, a2.Spec)
	}
	width := a1.Spec.width()
	if width < 1 {
		width = 1
	}
	var est float64
	for i := range a1.Totals {
		est += a1.Totals[i] * a2.Totals[i] / width
	}
	return est, nil
}

// relativeError returns |est−truth|/truth (0 when both are zero; +Inf when
// only the truth is zero).
func relativeError(est float64, truth int64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-float64(truth)) / float64(truth)
}
