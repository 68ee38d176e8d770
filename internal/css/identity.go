package css

import (
	"cmp"
	"slices"

	"github.com/essential-stats/etlopt/internal/stats"
)

// applyIdentityRules implements lines 17–21 of Algorithm 1. The identity
// rules are applied one level and only over statistics the regular rules
// already generated — otherwise repeated application of I2 would blow the
// universe up exponentially (a histogram on any attribute superset can
// stand in for a histogram, but a coarser histogram is always cheaper, so
// new supersets are never worth introducing).
//
//   - I1: a target's cardinality is computable from any existing histogram
//     on the same target (sum the buckets).
//   - I2: a histogram is computable from any existing histogram on a strict
//     attribute superset of the same target (marginalize). Expressing I2 as
//     its own candidate set — rather than substituting supersets into every
//     CSS as the paper's prose does — yields identical coverage through the
//     closure (the substituted CSS is covered exactly when the superset
//     histogram makes the coarser one computable) while keeping the CSS
//     count linear in the number of statistics.
//
// order lists the provisional ids canonically, which puts the histograms of
// one target next to each other, sorted by attribute string.
func (g *generator) applyIdentityRules(order []int32) {
	var group []ident
	for lo := 0; lo < len(order); {
		first := g.idents[order[lo]]
		hi := lo + 1
		for hi < len(order) && sameButAttrs(g.idents[order[hi]], first) {
			hi++
		}
		if first.kind == stats.Hist {
			// Candidate order is by attribute count, then string.
			group = group[:0]
			for _, p := range order[lo:hi] {
				group = append(group, g.idents[p])
			}
			lists := g.res.blocks[first.block].lists.ids
			slices.SortStableFunc(group, func(a, b ident) int {
				return cmp.Compare(len(lists[a.attrs]), len(lists[b.attrs]))
			})
			g.identityRules(group, lists)
		}
		lo = hi
	}
}

func sameButAttrs(a, b ident) bool { a.attrs = b.attrs; return a == b }

// identityRules applies I1 and I2 over the histograms of one target.
func (g *generator) identityRules(hists []ident, lists [][]int32) {
	// I1: |T| from any histogram on T.
	card := hists[0]
	card.kind, card.attrs = stats.Card, 0
	if p, ok := g.ids[card]; ok {
		for _, h := range hists {
			g.addCSS(p, RuleI1, h)
		}
	}
	// I2: H^a_T from any existing H^{a∪b}_T.
	for _, s := range hists {
		p := g.ids[s]
		for _, super := range hists {
			if len(lists[super.attrs]) > len(lists[s.attrs]) && subset(lists[s.attrs], lists[super.attrs]) {
				g.addCSS(p, RuleI2, super)
			}
		}
	}
}

func subset(sub, super []int32) bool {
	for _, a := range sub {
		if !slices.Contains(super, a) {
			return false
		}
	}
	return true
}
