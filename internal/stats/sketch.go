package stats

import (
	"fmt"
	"math"
)

// The sketch tier: bounded-memory approximate observers.
//
//   - HLL is a HyperLogLog register file backing the HLLDistinct kind.
//   - CMH is a count-min sketch over the buckets of a BucketSpec backing
//     the CMHist kind.
//
// Both hash through the same deterministic FNV-1a/splitmix pipeline with
// no per-process seeding, so a sketch observed on one host equals the
// sketch observed on another.

// DefaultHLLP is the default HyperLogLog precision: 2^9 = 512 single-byte
// registers (~4.6% standard error), small enough that an HLL upload stays
// far below an exact distinct observation's per-value footprint.
const DefaultHLLP = 9

// Count-min defaults: the sketch bucketizes values through a BucketSpec of
// defaultCMBuckets buckets and maintains DefaultCMDepth hashed counter rows
// of DefaultCMWidth columns each.
const (
	DefaultCMDepth   = 3
	DefaultCMWidth   = 64
	defaultCMBuckets = 64
)

// hashVals hashes an attribute tuple deterministically: FNV-1a over the
// little-endian bytes of each value, finished with the splitmix64 mixer so
// the low bits HLL consumes are well distributed.
func hashVals(vals []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// HLL is a HyperLogLog distinct-count sketch: 2^P single-byte registers,
// each holding the maximum leading-zero rank observed in its substream.
type HLL struct {
	// P is the precision (register-index bits); 2^P registers.
	P uint8
	// Regs holds one rank byte per register.
	Regs []byte
}

// hllPMin/hllPMax bound the accepted precision (16 to 65536 registers).
const (
	hllPMin = 4
	hllPMax = 16
)

// NewHLL returns an empty sketch with 2^p registers; p is clamped to the
// supported range.
func NewHLL(p uint8) *HLL {
	if p < hllPMin {
		p = hllPMin
	}
	if p > hllPMax {
		p = hllPMax
	}
	return &HLL{P: p, Regs: make([]byte, 1<<p)}
}

// addHash folds one pre-hashed observation into the sketch.
func (h *HLL) addHash(x uint64) {
	idx := x >> (64 - h.P)
	rest := x<<h.P | 1<<(h.P-1) // low bits; sentinel caps the rank
	rank := byte(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > h.Regs[idx] {
		h.Regs[idx] = rank
	}
}

// Add folds one attribute tuple into the sketch.
func (h *HLL) Add(vals ...int64) { h.addHash(hashVals(vals)) }

// Estimate returns the sketch's distinct-count estimate: the standard
// HyperLogLog harmonic mean with linear counting for the small range.
func (h *HLL) Estimate() int64 {
	m := float64(len(h.Regs))
	var sum float64
	zeros := 0
	for _, r := range h.Regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Linear counting: more accurate while registers are sparse.
		est = m * math.Log(m/float64(zeros))
	}
	if est < 0 {
		return 0
	}
	return int64(est + 0.5)
}

// memoryUnits prices the sketch in the cost model's 8-byte units.
func (h *HLL) memoryUnits() int64 { return int64((len(h.Regs) + 7) / 8) }

// CMH is a count-min sketch over histogram buckets: values map through
// Spec to a bucket index, and each of Depth hashed rows of Width counters
// accumulates the bucket's frequency. Point queries take the row minimum,
// so collisions only ever over-estimate.
type CMH struct {
	// Spec is the equi-width bucketization the sketch summarizes.
	Spec BucketSpec
	// Depth and Width are the counter-matrix dimensions.
	Depth, Width int
	// Counters holds Depth rows of Width int64 counters, row-major.
	Counters []int64
}

// NewCMH returns an empty sketch over the given bucketization.
func NewCMH(spec BucketSpec, depth, width int) *CMH {
	if depth < 1 {
		depth = 1
	}
	if width < 1 {
		width = 1
	}
	return &CMH{Spec: spec, Depth: depth, Width: width, Counters: make([]int64, depth*width)}
}

// CMSpecFor returns the default bucketization for a value domain [lo, hi]:
// defaultCMBuckets equi-width buckets (fewer when the domain is smaller).
func CMSpecFor(lo, hi int64) BucketSpec { return NewBucketSpec(lo, hi, defaultCMBuckets) }

// cmCol maps a bucket index to row d's counter column. Each row uses a
// distinct deterministic permutation seed.
func (c *CMH) cmCol(d, b int) int {
	return int(mix64(uint64(b)*0x9e3779b97f4a7c15+uint64(d)+1) % uint64(c.Width))
}

// Observe folds one value into the sketch.
func (c *CMH) Observe(v int64) { c.Inc(v, 1) }

// Inc adds delta to the value's bucket in every row.
func (c *CMH) Inc(v, delta int64) {
	b := c.Spec.Bucket(v)
	for d := 0; d < c.Depth; d++ {
		c.Counters[d*c.Width+c.cmCol(d, b)] += delta
	}
}

// BucketEstimate returns the count-min estimate for one bucket: the
// minimum of the bucket's counters across rows.
func (c *CMH) BucketEstimate(b int) int64 {
	min := c.Counters[c.cmCol(0, b)]
	for d := 1; d < c.Depth; d++ {
		if v := c.Counters[d*c.Width+c.cmCol(d, b)]; v < min {
			min = v
		}
	}
	return min
}

// total returns the exact total frequency (every row sums all increments,
// so any row's sum is the total).
func (c *CMH) total() int64 {
	var t int64
	for i := 0; i < c.Width; i++ {
		t += c.Counters[i]
	}
	return t
}

// MemoryUnits prices the sketch in the cost model's 8-byte units.
func (c *CMH) MemoryUnits() int64 { return int64(c.Depth) * int64(c.Width) }

// Approx expands the sketch into its bucketized-histogram view: one total
// per bucket, queryable by the same ApproxDotProduct the experiments use.
func (c *CMH) Approx() *Approx {
	a := newApprox(c.Spec)
	for b := 0; b < c.Spec.N; b++ {
		a.Totals[b] = float64(c.BucketEstimate(b))
	}
	return a
}

// CMDotProduct evaluates rule J1 over two count-min sketches of the same
// bucketization: the bucket-wise product divided by bucket width, exactly
// as ApproxDotProduct does for exact bucketized histograms.
func CMDotProduct(c1, c2 *CMH) (float64, error) {
	if c1.Spec != c2.Spec {
		return 0, fmt.Errorf("stats: dot product over mismatched bucket specs %v vs %v", c1.Spec, c2.Spec)
	}
	return ApproxDotProduct(c1.Approx(), c2.Approx())
}
