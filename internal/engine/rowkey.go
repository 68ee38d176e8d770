package engine

import (
	"slices"

	"github.com/essential-stats/etlopt/internal/batch"
	"github.com/essential-stats/etlopt/internal/mix"
)

// keySet deduplicates tuples of int64 values — group-by and aggregate keys,
// distinct-count combinations. The tuples it has seen sit row-major in one
// arena vector, in first-seen order, and an open-addressing table of tuple
// numbers (+1; 0 is an empty cell) hashed by mix.Tuple finds them. Both are
// sized once, for the most tuples the set can be given, at a load of at
// most one half: the set never grows and a key costs no heap allocation.
type keySet struct {
	arity  int
	tuples []int64
	n      int
	slots  []int32
}

// newKeySet returns an empty set of arity-value tuples with room for
// capacity tuples, carved from the arena.
func newKeySet(arity, capacity int, a *batch.Arena) keySet {
	s := keySet{arity: arity, tuples: a.Int64(arity * capacity), slots: a.Int32(mix.TableSize(capacity))}
	clear(s.slots)
	return s
}

// add records t, reporting whether it was first seen. t is copied.
func (s *keySet) add(t []int64) bool {
	w, mask := s.arity, len(s.slots)-1
	i := int(mix.Tuple(t)) & mask
	for {
		e := int(s.slots[i])
		if e == 0 {
			break
		}
		if slices.Equal(s.tuples[(e-1)*w:e*w], t) {
			return false
		}
		i = (i + 1) & mask
	}
	copy(s.tuples[s.n*w:], t)
	s.n++
	s.slots[i] = int32(s.n)
	return true
}

// len returns the number of distinct tuples recorded.
func (s *keySet) len() int { return s.n }
