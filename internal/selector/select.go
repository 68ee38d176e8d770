package selector

import (
	"errors"
	"fmt"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
)

// errNoSolution reports that no observation set covers the required
// statistics (cannot happen after NewUniverseOpts's derivability check, but
// the solvers guard against it anyway).
var errNoSolution = errors.New("selector: no feasible observation set")

// Selection is a chosen set of statistics to observe.
type Selection struct {
	// Observe lists the statistics to instrument, in deterministic order.
	Observe []stats.Stat
	// Cost is the total observation cost under the coster's objective.
	Cost float64
	// Memory is the total memory in abstract integer units (Figure 11).
	Memory int64
	// Optimal reports whether the solver proved minimality.
	Optimal bool
	// Method names the solver that produced the selection.
	Method string
	// Nodes counts search nodes, when applicable.
	Nodes int
}

// Method selects the solver.
type Method int

// Available solvers.
const (
	// MethodExact is the combinatorial branch and bound; it returns its
	// best incumbent (Optimal=false) when its node budget expires.
	MethodExact Method = iota
	// MethodGreedy forces the Section 5.3 heuristic.
	MethodGreedy
)

// ParseMethod maps a solver name ("exact" or "greedy"; "" means exact) onto
// its Method.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "", "exact":
		return MethodExact, nil
	case "greedy":
		return MethodGreedy, nil
	}
	return 0, fmt.Errorf("selector: unknown method %q (want exact or greedy)", name)
}

// Options configure Select.
type Options struct {
	Method Method
	// MaxNodes caps the exact method's search nodes (0 = a budget scaled
	// inversely with the universe's size).
	MaxNodes int
}

// Select determines a minimum-cost set of statistics to observe for the
// generated CSS result, per Section 5 of the paper.
func Select(res *css.Result, coster *costmodel.Coster, opt Options) (*Selection, error) {
	u, err := NewUniverseOpts(res, coster, UniverseOptions{})
	if err != nil {
		return nil, err
	}
	return SelectUniverse(u, opt)
}

// SelectUniverse is Select over a pre-built universe, so callers can reuse
// the indexing across solver comparisons.
func SelectUniverse(u *Universe, opt Options) (*Selection, error) {
	switch opt.Method {
	case MethodGreedy:
		return Greedy(u)
	default:
		maxNodes := opt.MaxNodes
		if maxNodes <= 0 {
			// Each branch-and-bound node costs two cost passes, each of
			// which settles at most the whole CSS graph; scale the default
			// budget inversely with graph size so worst-case solve time
			// stays bounded while small universes still get exhaustive
			// search.
			maxNodes = 40_000_000 / (1 + len(u.inputs))
			if maxNodes < 1000 {
				maxNodes = 1000
			}
			if maxNodes > 200000 {
				maxNodes = 200000
			}
		}
		return newScratch(u).solveExact(maxNodes)
	}
}
