package stats

import "math"

// Drift quantifies how far the data under a workflow has moved between two
// observation stores (typically consecutive runs). The paper's loop
// re-collects statistics and re-optimizes "at each run or at some other
// user defined interval" (Section 3.2); drift gives that interval a
// data-driven trigger: re-optimize when the statistics that justified the
// current plan have shifted beyond a threshold.
type Drift struct {
	// MaxRel is the largest relative change of any statistic present in
	// both stores (scalars by value, histograms by L1 distance over their
	// total mass).
	MaxRel float64
	// MeanRel is the mean relative change across shared statistics.
	MeanRel float64
	// Shared counts statistics present in both stores.
	Shared int
	// OnlyOld and OnlyNew count statistics present in one store only
	// (differing instrumentation between the runs).
	OnlyOld, OnlyNew int
}

// MeasureDrift compares two stores. Both stores are read-locked (in a
// fixed order, so concurrent two-store operations cannot deadlock):
// measuring drift against a store that is still being fed by an
// instrumented run is safe.
func MeasureDrift(old, new *Store) Drift {
	defer lockPair(old, new, false)()
	var d Drift
	var sum float64
	for k, ov := range old.m {
		nv, ok := new.m[k]
		if !ok {
			d.OnlyOld++
			continue
		}
		d.Shared++
		rel := valueDrift(ov, nv)
		sum += rel
		if rel > d.MaxRel {
			d.MaxRel = rel
		}
	}
	for k := range new.m {
		if _, ok := old.m[k]; !ok {
			d.OnlyNew++
		}
	}
	if d.Shared > 0 {
		d.MeanRel = sum / float64(d.Shared)
	}
	return d
}

// valueDrift returns the relative change between two observations of the
// same statistic.
func valueDrift(ov, nv *Value) float64 {
	if (ov.Hist == nil) != (nv.Hist == nil) {
		// The representation itself changed between runs (scalar one run,
		// histogram the other, e.g. differing instrumentation): comparing
		// the zero Scalar against a real one would report spurious
		// agreement, so count it as full drift.
		return 1
	}
	if ov.Hist == nil {
		return relChange(float64(ov.Scalar), float64(nv.Scalar))
	}
	// Histograms: L1 distance of the bucket vectors, normalized by the
	// larger total mass — 0 for identical distributions, up to 2 for
	// disjoint supports; halve into [0, 1].
	var l1 float64
	ov.Hist.Each(func(vals []int64, f int64) {
		l1 += math.Abs(float64(f) - float64(nv.Hist.Freq(vals...)))
	})
	nv.Hist.Each(func(vals []int64, f int64) {
		if ov.Hist.Freq(vals...) == 0 {
			l1 += float64(f)
		}
	})
	denom := math.Max(float64(ov.Hist.Total()), float64(nv.Hist.Total()))
	if denom == 0 {
		if l1 == 0 {
			return 0
		}
		return 1
	}
	return l1 / (2 * denom)
}

func relChange(a, b float64) float64 {
	if a == b {
		return 0
	}
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom == 0 {
		return 0
	}
	return math.Abs(a-b) / denom
}

// Exceeds reports whether any statistic moved beyond the threshold
// (relative change in [0, 1]).
func (d Drift) Exceeds(threshold float64) bool { return d.MaxRel > threshold }
