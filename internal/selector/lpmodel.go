package selector

import (
	"fmt"

	"github.com/essential-stats/etlopt/internal/ilp"
	"github.com/essential-stats/etlopt/internal/lp"
)

// maxLPVars rejects models larger than this many variables; callers fall
// back to the combinatorial solver.
const maxLPVars = 4000

// LPOptions tune the LP-formulation solver.
type LPOptions struct {
	// MaxNodes caps branch-and-bound nodes (0 = 20000).
	MaxNodes int
}

// SolveLP builds and solves the paper's 0–1 integer program of Section 5.2:
// variables x (observe), y (computable) and z (CSS covered), with
//
//	∀ CSS_ij:              Σ_{k∈CSS_ij} y_k ≥ z_ij·|CSS_ij|
//	∀ i with only trivial:  y_i = x_i
//	∀ other observable i:   y_i ≥ x_i
//	∀ i:                    y_i ≤ x_i + Σ_j z_ij    (x_i absent if unobservable)
//	∀ i,j:                  y_i ≥ z_ij
//	∀ i ∈ S_C:              y_i ≥ 1
//	min Σ c_i·x_i
//
// Because the covering constraints admit circularly-supported integral
// solutions (a CSS cycle "proving" itself), each integral candidate is
// verified against the true closure; spurious candidates are cut off with
// reachability cuts (at least one further relevant observable must be
// chosen) and the search continues. The returned selection is provably
// optimal.
func SolveLP(u *Universe, opt LPOptions) (*Selection, error) {
	n := len(u.Stats)
	// Variable layout: x for observable stats, then y for all stats, then
	// z for all CSSs.
	xIdx := make([]int, n) // -1 when unobservable
	next := 0
	for i := 0; i < n; i++ {
		if u.Observable[i] {
			xIdx[i] = next
			next++
		} else {
			xIdx[i] = -1
		}
	}
	// y for statistic i is variable yBase+i, z for candidate set c zBase+c.
	yBase := next
	zBase := yBase + n
	next = zBase + u.numCSS()
	if next > maxLPVars {
		return nil, fmt.Errorf("selector: LP model has %d variables, above the limit %d", next, maxLPVars)
	}

	p := &lp.Problem{NumVars: next, C: make([]float64, next)}
	var binaries []int
	for i := 0; i < n; i++ {
		if xIdx[i] >= 0 {
			p.C[xIdx[i]] = u.Cost[i]
			binaries = append(binaries, xIdx[i])
		}
	}
	for i := 0; i < n; i++ {
		from, to := u.css(int32(i))
		// Covering constraints per CSS.
		for c := from; c < to; c++ {
			in := u.in(c)
			coef := map[int]float64{zBase + int(c): -float64(len(in))}
			for _, j := range in {
				coef[yBase+int(j)] += 1
			}
			p.AddRow(lp.GE, 0, coef) // Σ y_k − |CSS|·z ≥ 0
			// y_i ≥ z_ij.
			p.AddRow(lp.GE, 0, map[int]float64{yBase + i: 1, zBase + int(c): -1})
		}
		switch {
		case from == to && xIdx[i] >= 0:
			// Only the trivial CSS: computable iff observed.
			p.AddRow(lp.EQ, 0, map[int]float64{yBase + i: 1, xIdx[i]: -1})
		case from == to:
			// Neither observable nor derivable: y_i = 0.
			p.AddRow(lp.EQ, 0, map[int]float64{yBase + i: 1})
		default:
			// y_i ≤ x_i + Σ_j z_ij  and  y_i ≥ x_i.
			coef := map[int]float64{yBase + i: 1}
			if xIdx[i] >= 0 {
				coef[xIdx[i]] = -1
				p.AddRow(lp.GE, 0, map[int]float64{yBase + i: 1, xIdx[i]: -1})
			}
			for c := from; c < to; c++ {
				coef[zBase+int(c)] = -1
			}
			p.AddRow(lp.LE, 0, coef)
		}
	}
	for _, r := range u.Required {
		p.AddRow(lp.GE, 1, map[int]float64{yBase + int(r): 1})
	}

	// Incumbent from greedy.
	g, err := Greedy(u)
	if err != nil {
		return nil, err
	}

	verify := func(x []float64) (bool, []lp.Row) {
		observed := make([]bool, n)
		for i := 0; i < n; i++ {
			if xIdx[i] >= 0 && x[xIdx[i]] > 0.5 {
				observed[i] = true
			}
		}
		closed := u.Closure(observed)
		for _, r := range u.Required {
			if closed[r] {
				continue
			}
			// Spurious (circular) support: cut it off. Any genuine
			// solution must observe at least one relevant observable
			// statistic beyond the current choice.
			relevant := u.reachableObservables(r)
			coef := map[int]float64{}
			for _, i := range relevant {
				if !observed[i] {
					coef[xIdx[i]] = 1
				}
			}
			if len(coef) == 0 {
				return false, nil // genuinely infeasible branch
			}
			return false, []lp.Row{{Coef: coef, Op: lp.GE, RHS: 1, Name: "reach-cut"}}
		}
		return true, nil
	}

	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		// Every node re-solves the dense relaxation from scratch; cap the
		// default so pathological instances degrade to the greedy
		// incumbent instead of hanging.
		maxNodes = 2000
	}
	res, err := ilp.Solve(&ilp.Model{LP: p, Binary: binaries}, ilp.Options{
		MaxNodes:     maxNodes,
		Incumbent:    g.Cost + 1e-9,
		HasIncumbent: true,
		OnIntegral:   verify,
	})
	if err != nil {
		return nil, err
	}
	switch res.Status {
	case ilp.Infeasible:
		return nil, errNoSolution
	}
	observed := make([]bool, n)
	if res.X == nil {
		// The greedy incumbent was already optimal.
		for _, s := range g.Observe {
			if i, ok := u.Lookup(s); ok {
				observed[i] = true
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if xIdx[i] >= 0 && res.X[xIdx[i]] > 0.5 {
				observed[i] = true
			}
		}
	}
	return u.selection(observed, "lp", res.Status == ilp.Optimal, res.Nodes), nil
}

// reachableObservables returns the observable statistics in the derivation
// cone of statistic r (r itself included when observable).
func (u *Universe) reachableObservables(r int32) []int32 {
	seen := make([]bool, len(u.Stats))
	var out []int32
	var walk func(i int32)
	walk = func(i int32) {
		if seen[i] {
			return
		}
		seen[i] = true
		if u.Observable[i] {
			out = append(out, i)
		}
		for c, to := u.css(i); c < to; c++ {
			for _, j := range u.in(c) {
				walk(j)
			}
		}
	}
	walk(r)
	return out
}
