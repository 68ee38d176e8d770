package main

import (
	"math"
	"sort"
)

// minOf returns the smallest sample (NaN for none, so a floor over an op
// that never produced a sample poisons its metric instead of reading 0).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// floorSum is the sum over ops of each op's minimum over its timed rounds.
// It is the statistic the issue asked to gate; on this host it repeats only
// where an op has thousands of short samples (see README), so it gates the
// hit latency and is reported, ungated, for everything else.
func floorSum(ops [][]float64) float64 {
	var sum float64
	for _, samples := range ops {
		sum += minOf(samples)
	}
	return sum
}

// floorMean is floorSum over the op count (per-request latencies, where the
// workflows are interchangeable and a sum would scale with the list).
func floorMean(ops [][]float64) float64 {
	if len(ops) == 0 {
		return math.NaN()
	}
	return floorSum(ops) / float64(len(ops))
}

// steady is the mean of the fastest three quarters of the samples. The slow
// quarter is where a GC cycle or a bad moment of the host landed; the mean of
// the rest uses every remaining sample, where a median of 20 flips between
// the two modes of an op that a GC cycle hits every other round.
func steady(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[:(3*len(s)+3)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// steadySum is the sum over ops of each op's steady time over its timed
// rounds: the statistic of every phase time (cycle_s, serve_miss_s, ...).
func steadySum(ops [][]float64) float64 {
	var sum float64
	for _, samples := range ops {
		sum += steady(samples)
	}
	return sum
}

// roundPercentile is the p-th percentile of the per-round sums: round i's
// value is the sum of every op's i-th sample, so it reads as "one round of
// this phase" the way the floor does.
func roundPercentile(ops [][]float64, p float64) float64 {
	rounds := math.MaxInt
	for _, s := range ops {
		if len(s) < rounds {
			rounds = len(s)
		}
	}
	if len(ops) == 0 || rounds == 0 {
		return math.NaN()
	}
	sums := make([]float64, rounds)
	for _, s := range ops {
		for i := 0; i < rounds; i++ {
			sums[i] += s[i]
		}
	}
	return percentile(sums, p)
}
