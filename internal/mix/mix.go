// Package mix is the seeded hash, and the table size, that every
// open-addressing table of int64 tuples shares: the statistics histograms'
// bucket index, the engine's dedup and distinct sets, and the join index. Their keys come from outside the process —
// stores uploaded to the daemon, `run -data` CSVs, worker tables — and a
// fixed hash would let that input choose values that all collide, so the
// seed is drawn once per process. Every table iterates in insertion or
// row order, so no output depends on the seed.
package mix

import "math/rand/v2"

var seed = rand.Uint64()

// round mixes v into h with the splitmix64 finalizer.
func round(h uint64, v int64) uint64 {
	h ^= uint64(v)
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Tuple hashes a tuple of values, one round per value.
func Tuple(t []int64) uint64 {
	h := seed
	for _, v := range t {
		h = round(h, v)
	}
	return h
}

// Value hashes one value; it equals Tuple of the one-value tuple.
func Value(v int64) uint64 { return round(seed, v) }

// TableSize returns the cell count of an open-addressing table that holds
// n keys at a load of at most one half: the least power of two, at least
// 2, that is at least 2n.
func TableSize(n int) int {
	size := 2
	for size < 2*n {
		size *= 2
	}
	return size
}
