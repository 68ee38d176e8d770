// Package costmodel implements the memory observation cost metric of
// Section 5.4 of the paper: the overhead of maintaining a statistic (one
// counter for a cardinality, the attribute domain size — conservatively,
// the product of domain sizes for multi-attribute histograms — for
// distributions). Selection prices a statistic by its memory, the metric
// of Figure 11, with the two Section 6 enhancements the catalog declares:
// functional dependencies shrink joint histograms, and relations with
// source statistics observe for free.
package costmodel

import (
	"fmt"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Coster prices statistics for the selection step by memory.
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
