// Package expr enumerates the sub-expressions (SEs) and the plan space of
// an optimizable block, per Section 3.2.2 and Definition 1 of Halasipuram
// et al. (EDBT 2014). An SE is identified by the set of block inputs it
// joins; the plan space records, for each SE, every way the optimizer can
// compose it from two smaller SEs.
package expr

import (
	"fmt"
	"math/bits"
	"strings"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// Set is a bitset over the inputs of one block; bit i set means
// Block.Inputs[i] is part of the sub-expression. Blocks are limited to 64
// inputs, far beyond any practical ETL join.
type Set uint64

// NewSet returns a set containing the given input indexes.
func NewSet(idx ...int) Set {
	var s Set
	for _, i := range idx {
		s |= 1 << uint(i)
	}
	return s
}

// Has reports whether input i is in the set.
func (s Set) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Add returns s with input i added.
func (s Set) Add(i int) Set { return s | 1<<uint(i) }

// Union returns the union of the two sets.
func (s Set) Union(o Set) Set { return s | o }

// Without returns s minus the members of o.
func (s Set) Without(o Set) Set { return s &^ o }

// contains reports whether every member of o is in s.
func (s Set) contains(o Set) bool { return s&o == o }

// Intersects reports whether the sets share a member.
func (s Set) Intersects(o Set) bool { return s&o != 0 }

// Len returns the number of members.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return s == 0 }

// Lowest returns the smallest member index, or -1 for the empty set.
func (s Set) Lowest() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// Members returns the member indexes in increasing order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Len())
	for v := s; v != 0; {
		i := bits.TrailingZeros64(uint64(v))
		out = append(out, i)
		v &^= 1 << uint(i)
	}
	return out
}

// subsets calls f for every non-empty proper subset of s that contains the
// lowest member of s (so each unordered 2-partition of s is visited exactly
// once, as (subset, complement)). Enumeration order is deterministic.
func (s Set) subsets(f func(sub Set)) {
	if s.Len() < 2 {
		return
	}
	low := Set(1) << uint(s.Lowest())
	rest := s &^ low
	// Iterate subsets of rest via the standard sub = (sub-1) & rest trick,
	// adding the fixed lowest bit to each.
	for sub := rest; ; sub = (sub - 1) & rest {
		cand := sub | low
		if cand != s { // proper subset
			f(cand)
		}
		if sub == 0 {
			break
		}
	}
}

// Label renders the set using the block's input names, e.g.
// "Orders⋈Customer". The empty set renders as "∅".
func (s Set) Label(b *workflow.Block) string {
	if s == 0 {
		return "∅"
	}
	names := make([]string, 0, s.Len())
	for _, i := range s.Members() {
		if b != nil && i < len(b.Inputs) {
			names = append(names, b.Inputs[i].Name)
		} else {
			names = append(names, fmt.Sprintf("R%d", i))
		}
	}
	return strings.Join(names, "⋈")
}
