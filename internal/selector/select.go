package selector

import (
	"errors"
	"fmt"

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

// Options configure SelectUniverse.
type Options struct {
	Method Method
}

// SelectUniverse determines a minimum-cost set of statistics to observe
// over the universe, per Section 5 of the paper, with the method's solver.
func SelectUniverse(u *Universe, opt Options) (*Selection, error) {
	if opt.Method == MethodGreedy {
		return Greedy(u)
	}
	// Each branch-and-bound node costs two cost passes, each of which
	// settles at most the whole CSS graph; scale the node budget inversely
	// with graph size so worst-case solve time stays bounded while small
	// universes still get exhaustive search.
	maxNodes := min(max(40_000_000/(1+len(u.inputs)), 1000), 200000)
	return newScratch(u).solveExact(maxNodes)
}
