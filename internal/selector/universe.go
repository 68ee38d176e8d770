// Package selector chooses the optimal set of statistics to observe for an
// ETL workflow, per Section 5 of the paper: given the statistic universe
// and candidate statistics sets from package css and observation costs from
// package costmodel, it finds a minimum-cost set of observable statistics
// such that the cardinality of every sub-expression is computable. Two
// solvers are provided: MethodExact, a combinatorial branch and bound with
// closure-based feasibility that minimises the paper's 0–1 program of
// Section 5.2, and MethodGreedy, the greedy heuristic of Section 5.3.
//
// The solvers work on statistic ids — the css.Result's own — over a flat
// candidate-set graph (Universe), and share one set of
// work arrays per solve (scratch): a closure, a cost pass or a
// branch-and-bound node allocates nothing beyond the node's own sets.
package selector

import (
	"fmt"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Universe is a css.Result priced and laid out for the solvers: statistic
// i is res.Stats[i], costs are precomputed, and the candidate sets that can
// ever be computed form a flat graph in compressed-row form. It is the
// common substrate of both solvers and is read-only once built.
type Universe struct {
	Res *css.Result
	// Stats lists the statistic universe in deterministic order.
	Stats []stats.Stat
	// Observable marks statistics the initial plan can observe.
	Observable []bool
	// Cost is the observation cost per statistic (+Inf when unobservable).
	Cost []float64
	// Mem is the memory-unit cost per statistic (the Figure 11 metric).
	Mem []int64
	// Required lists S_C as indexes.
	Required []int32

	// Statistic i's candidate sets are those numbered cssOff[i] up to
	// cssOff[i+1], in the result's order; set c needs
	// inputs[inOff[c]:inOff[c+1]]. Conversely statistic i is an input of the
	// sets uses[useOff[i]:useOff[i+1]], and set c computes cssStat[c].
	cssOff, inOff, useOff []int32
	inputs, uses, cssStat []int32
	// derivable marks the statistics computable when everything observable
	// is observed (candidate sets needing any other statistic are dropped).
	derivable []bool
}

// UniverseOptions configure universe construction. There is nothing to
// configure: the type stays because callers outside this module pass it.
type UniverseOptions struct{}

// NewUniverseOpts indexes a CSS-generation result with the given coster. It
// verifies that every required statistic is derivable at all (observable or
// transitively covered), pruning candidate sets that reference underivable
// statistics. The shared css.Result is never mutated.
func NewUniverseOpts(res *css.Result, coster *costmodel.Coster, _ UniverseOptions) (*Universe, error) {
	u := &Universe{Res: res, Stats: res.Stats, Required: res.RequiredIDs}
	n := len(u.Stats)
	u.Observable = make([]bool, n)
	u.Cost = make([]float64, n)
	u.Mem = make([]int64, n)
	u.cssOff = make([]int32, 1, n+1)
	u.inOff = make([]int32, 1, res.NumCSS()+1)
	for i, s := range u.Stats {
		// Costs are priced for every statistic, not just currently
		// observable ones: the Section 6.1 budget planner treats any
		// statistic as observable in a re-ordered later run.
		var err error
		if u.Cost[i], u.Mem[i], err = coster.Price(s); err != nil {
			return nil, fmt.Errorf("selector: cost of %v: %w", s.Key(), err)
		}
		u.Observable[i] = res.Observable[i]
		for _, c := range res.CSS[i] {
			u.addCSS(c.Inputs...)
		}
		u.cssOff = append(u.cssOff, int32(u.numCSS()))
	}
	u.pruneUnderivable()
	// Sanity: every required statistic must be derivable when everything
	// observable is observed.
	for _, r := range u.Required {
		if !u.derivable[r] {
			return nil, fmt.Errorf("selector: required statistic %v not derivable from any observable set",
				u.Stats[r].Key())
		}
	}
	return u, nil
}

// addCSS appends a candidate set to the statistic under construction.
func (u *Universe) addCSS(inputs ...int32) {
	u.inputs = append(u.inputs, inputs...)
	u.inOff = append(u.inOff, int32(len(u.inputs)))
}

// numCSS returns the number of candidate sets in the graph.
func (u *Universe) numCSS() int { return len(u.inOff) - 1 }

// css returns the range of candidate sets of statistic i.
func (u *Universe) css(i int32) (from, to int32) { return u.cssOff[i], u.cssOff[i+1] }

// in returns the inputs of candidate set c.
func (u *Universe) in(c int32) []int32 { return u.inputs[u.inOff[c]:u.inOff[c+1]] }

// usedBy returns the candidate sets statistic i is an input of.
func (u *Universe) usedBy(i int32) []int32 { return u.uses[u.useOff[i]:u.useOff[i+1]] }

// pruneUnderivable removes candidate sets whose inputs can never be
// computed (not observable and, transitively, not derivable), shrinking the
// graph the solvers walk, and then indexes the graph by input.
func (u *Universe) pruneUnderivable() {
	n := int32(len(u.Stats))
	possible := append([]bool(nil), u.Observable...)
	feasible := func(c int32) bool {
		for _, j := range u.in(c) {
			if !possible[j] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for i := int32(0); i < n; i++ {
			if possible[i] {
				continue
			}
			for c, to := u.css(i); c < to; c++ {
				if feasible(c) {
					possible[i] = true
					changed = true
					break
				}
			}
		}
	}
	u.derivable = possible
	// Compact the kept sets in place, noting the statistic each computes.
	u.cssStat = make([]int32, 0, u.numCSS())
	var ni int32
	for i := int32(0); i < n; i++ {
		c, to := u.css(i)
		u.cssOff[i] = int32(len(u.cssStat))
		for ; c < to; c++ {
			if feasible(c) {
				ni += int32(copy(u.inputs[ni:], u.in(c)))
				u.cssStat = append(u.cssStat, i)
				u.inOff[len(u.cssStat)] = ni
			}
		}
	}
	nc := int32(len(u.cssStat))
	u.cssOff[n] = nc
	u.inOff, u.inputs = u.inOff[:nc+1], u.inputs[:ni]

	// Index the graph by input.
	u.useOff = make([]int32, n+1)
	for _, j := range u.inputs {
		u.useOff[j+1]++
	}
	for i := int32(0); i < n; i++ {
		u.useOff[i+1] += u.useOff[i]
	}
	u.uses = make([]int32, ni)
	fill := append([]int32(nil), u.useOff[:n]...)
	for c := int32(0); c < nc; c++ {
		for _, j := range u.in(c) {
			u.uses[fill[j]] = c
			fill[j]++
		}
	}
}

// closure computes the set of computable statistics given the observed
// ones: the least fixpoint of "observed, or some CSS fully computable"
// (property 1 of Section 5.1). It visits only the candidate sets that
// computable statistics are inputs of.
func (u *Universe) closure(observed []bool) []bool {
	// Propagation needs no work array but its queue, which grows on demand.
	return (&scratch{u: u}).closure(observed, make([]bool, len(u.Stats)))
}

// Covered reports whether every required statistic is computable under the
// observation set.
func (u *Universe) Covered(observed []bool) bool {
	return u.covers(u.closure(observed))
}

// covers reports whether a closure holds every required statistic.
func (u *Universe) covers(closed []bool) bool {
	for _, r := range u.Required {
		if !closed[r] {
			return false
		}
	}
	return true
}

// ObservedCost sums the cost of an observation set.
func (u *Universe) ObservedCost(observed []bool) float64 {
	var total float64
	for i, on := range observed {
		if on {
			total += u.Cost[i]
		}
	}
	return total
}

// selection reports an observation set as a Selection.
func (u *Universe) selection(observed []bool, method string, optimal bool, nodes int) *Selection {
	sel := &Selection{Cost: u.ObservedCost(observed), Optimal: optimal, Method: method, Nodes: nodes}
	for i, on := range observed {
		if on {
			sel.Observe = append(sel.Observe, u.Stats[i])
			sel.Memory += u.Mem[i]
		}
	}
	return sel
}

// freeObservables returns the zero-cost observable statistics (e.g. free
// source statistics, Section 6.2), which every solver takes up front: they
// can only help.
func (u *Universe) freeObservables() []bool {
	free := make([]bool, len(u.Stats))
	for i := range free {
		free[i] = u.Observable[i] && u.Cost[i] == 0
	}
	return free
}
