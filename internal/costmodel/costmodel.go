// Package costmodel implements the observation cost metrics of Section 5.4
// of the paper: the memory overhead of maintaining a statistic (one counter
// for a cardinality, the attribute domain size — conservatively, the
// product of domain sizes for multi-attribute histograms — for
// distributions) and the CPU cost of updating it (proportional to the
// number of tuples flowing past the observation point). Selection prices a
// statistic by its memory, the metric of Figure 11, with the two Section 6
// enhancements the catalog declares: functional dependencies shrink joint
// histograms, and relations with source statistics observe for free. The
// CPU cost is measured beside it, never part of the price.
package costmodel

import (
	"fmt"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Coster prices statistics for the selection step by memory and measures
// their observation CPU.
type Coster struct {
	// Res is the CSS generation result the statistics belong to.
	Res *css.Result
	// Cat supplies domain sizes, functional dependencies and the relations
	// whose source system publishes statistics.
	Cat *workflow.Catalog
}

// NewMemoryCoster prices statistics by memory units, the metric of
// Figure 11.
func NewMemoryCoster(res *css.Result, cat *workflow.Catalog) *Coster {
	return &Coster{Res: res, Cat: cat}
}

// memory returns the memory overhead of observing the statistic, in
// abstract integer units as in the paper: 1 for a cardinality counter, and
// the product of attribute domain sizes for distinct counts and histograms.
// Attributes the catalog's functional dependencies determine from the rest
// of the set do not enlarge that product (Section 6).
func (c *Coster) memory(s stats.Stat) (int64, error) {
	if s.Kind == stats.Card {
		return 1, nil
	}
	// Sketch-backed kinds occupy a fixed budget regardless of the attribute
	// domain — that bound is the whole point of the approximate tier. The
	// units mirror Store.MemoryUnits: 8 HLL registers per unit, one unit per
	// count-min counter.
	switch s.Kind {
	case stats.HLLDistinct:
		return (1 << stats.DefaultHLLP) / 8, nil
	case stats.CMHist:
		return int64(stats.DefaultCMDepth) * int64(stats.DefaultCMWidth), nil
	}
	phys, err := c.Res.PhysicalAttrs(s)
	if err != nil {
		return 0, err
	}
	if len(c.Cat.FDs) > 0 {
		phys = c.reduceByFDs(phys)
	}
	total := int64(1)
	for _, a := range phys {
		d, err := c.domainOf(a)
		if err != nil {
			return 0, err
		}
		if total > 0 && d > 0 && total > (1<<62)/d {
			return 1 << 62, nil // saturate instead of overflowing
		}
		total *= d
	}
	return total, nil
}

// domainOf returns the domain of an attribute, falling back across the
// attribute's join-equivalence class when the physical attribute itself is
// a derived column without registered domain.
func (c *Coster) domainOf(a workflow.Attr) (int64, error) {
	if d, err := c.Cat.Domain(a); err == nil {
		return d, nil
	}
	return 0, fmt.Errorf("costmodel: no domain for attribute %s", a)
}

// reduceByFDs drops attributes functionally determined by the remaining
// attributes of the set; such attributes cannot increase the number of
// distinct combinations.
func (c *Coster) reduceByFDs(attrs []workflow.Attr) []workflow.Attr {
	out := append([]workflow.Attr(nil), attrs...)
	for changed := true; changed; {
		changed = false
		for i, a := range out {
			rest := append(append([]workflow.Attr(nil), out[:i]...), out[i+1:]...)
			if c.Cat.Determined(rest, a) {
				out = rest
				changed = true
				break
			}
		}
	}
	return out
}

// CPU returns the CPU observation cost: the number of tuples at the
// observation point, estimated under independence (Section 5.4's first-run
// sizes), scaled by the per-kind update weight — each tuple costs one update
// for exact statistics, while sketch updates (a hash and a register/counter
// write, no sorted-map maintenance) are priced at SketchUpdateWeight of one.
func (c *Coster) CPU(s stats.Stat) float64 {
	n, _ := independence{c.Res, c.Cat}.sizeOf(s.Target)
	return n * updateWeight(s.Kind)
}

// SketchUpdateWeight prices one sketch update relative to one exact
// distribution update. Exact distribution updates maintain a sorted
// frequency map; a sketch update is a 64-bit hash plus a bounded number of
// array writes.
const SketchUpdateWeight = 0.1

// cardUpdateWeight prices a cardinality update: a bare counter increment,
// with no key hashing or map maintenance at all — orders of magnitude
// below the exact-distribution unit the weights are relative to.
const cardUpdateWeight = 0.001

// updateWeight returns the per-tuple CPU weight of a statistic kind,
// relative to one exact distribution (frequency-map) update.
func updateWeight(k stats.Kind) float64 {
	if k == stats.Card {
		return cardUpdateWeight
	}
	if k.Approx() {
		return SketchUpdateWeight
	}
	return 1
}

// Price returns the selection cost of observing the statistic and its
// memory, sizing the statistic once; the selector prices every statistic of
// the universe with it. The cost is the memory, except that a statistic the
// source system already publishes costs zero (Section 6.2).
func (c *Coster) Price(s stats.Stat) (cost float64, mem int64, err error) {
	if mem, err = c.memory(s); err != nil {
		return 0, 0, err
	}
	if c.isFreeSourceStat(s) {
		return 0, mem, nil
	}
	return float64(mem), mem, nil
}

// isFreeSourceStat reports whether the statistic describes an unmodified
// base relation whose source system publishes statistics (Section 6.2).
func (c *Coster) isFreeSourceStat(s stats.Stat) bool {
	t := s.Target
	if t.IsReject() || t.Set.Len() != 1 {
		return false
	}
	bc := c.Res.Analysis.Blocks[t.Block]
	i := t.Set.Lowest()
	in := bc.Inputs[i]
	if in.SourceRel == "" {
		return false
	}
	// Only the raw relation is covered by source statistics: either the
	// raw chain point, or the cooked input when it has no operators.
	if t.IsChainPoint() && t.Depth != 0 {
		return false
	}
	if !t.IsChainPoint() && len(in.Ops) > 0 {
		return false
	}
	rel := c.Cat.Relation(in.SourceRel)
	return rel != nil && rel.HasSourceStats
}

// independence estimates target sizes under attribute independence and
// uniformity, the paper's first-run approximation: base sizes from the
// catalog, selectivity 1/domain for equality predicates and 1/3 for range
// predicates, and joins scaled by 1/domain of the join attribute.
type independence struct {
	res *css.Result
	cat *workflow.Catalog
}

// rejectFraction approximates the share of rows a reject link captures.
const rejectFraction = 0.1

// sizeOf returns the estimated tuple count of the target, or false when
// the catalog lacks a base size it needs.
func (ind independence) sizeOf(t stats.Target) (float64, bool) {
	bc := ind.res.Analysis.Blocks[t.Block]
	size := 1.0
	for _, i := range t.Set.Members() {
		s, ok := ind.inputSize(bc, i, t)
		if !ok {
			return 0, false
		}
		if t.IsReject() && i == t.RejectInput {
			s *= rejectFraction
		}
		size *= s
	}
	// Each join edge internal to the SE divides by its attribute domain.
	for _, e := range bc.Joins {
		if t.Set.Has(e.LeftInput) && t.Set.Has(e.RightInput) {
			if d, err := ind.cat.Domain(e.LeftAttr); err == nil && d > 0 {
				size /= float64(d)
			}
		}
	}
	if size < 1 {
		size = 1
	}
	return size, true
}

// inputSize estimates the tuple count of one input at the depth addressed
// by the target (full chain for cooked SEs).
func (ind independence) inputSize(blk *workflow.Block, i int, t stats.Target) (float64, bool) {
	in := blk.Inputs[i]
	var base float64
	switch {
	case in.SourceRel != "":
		rel := ind.cat.Relation(in.SourceRel)
		if rel == nil || rel.Card <= 0 {
			return 0, false
		}
		base = float64(rel.Card)
	case in.FromBlock >= 0:
		up := ind.res.Analysis.Blocks[in.FromBlock]
		s, ok := ind.sizeOf(stats.BlockSE(in.FromBlock, fullSet(up)))
		if !ok {
			return 0, false
		}
		// A terminating group-by shrinks the boundary record-set.
		for _, op := range up.TopOps {
			if op.Kind == workflow.KindGroupBy || op.Kind == workflow.KindAggregateUDF {
				s /= 3
			}
		}
		base = s
	default:
		return 0, false
	}
	depth := len(in.Ops)
	if t.IsChainPoint() && t.Set.Lowest() == i {
		depth = t.Depth
	}
	for d := 0; d < depth; d++ {
		op := in.Ops[d]
		if op.Kind != workflow.KindSelect {
			continue
		}
		if op.Pred.Op == workflow.CmpEq {
			if dom, err := ind.cat.Domain(op.Pred.Attr); err == nil && dom > 0 {
				base /= float64(dom)
				continue
			}
		}
		base /= 3
	}
	return base, true
}

func fullSet(b *workflow.Block) expr.Set {
	var s expr.Set
	for i := range b.Inputs {
		s = s.Add(i)
	}
	return s
}
