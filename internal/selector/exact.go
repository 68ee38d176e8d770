package selector

import "math"

// solveExact finds a provably minimum-cost observation set. It minimises the
// paper's 0–1 program of Section 5.2 — x_i observes statistic i, y_i marks
// it computable, z_ij marks its candidate set j covered:
//
//	min Σ c_i·x_i  subject to
//	∀ CSS_ij:       Σ_{k∈CSS_ij} y_k ≥ |CSS_ij|·z_ij,  y_i ≥ z_ij
//	∀ i:            x_i ≤ y_i ≤ x_i + Σ_j z_ij  (x_i = 0 if unobservable)
//	∀ i ∈ S_C:      y_i ≥ 1
//
// over the least fixpoint of those constraints, which is the Section 5.1
// closure: a candidate-set cycle that only "proves" itself covers nothing.
// It does so by branch and bound over the observable statistics: feasibility
// is the closure itself, the lower bound combines committed cost with the
// cheapest possible completion of the most expensive uncovered requirement,
// and greedy completions supply incumbents and branching choices. maxNodes
// caps search nodes (0 = 200000); when it runs out, the best incumbent is
// returned with Optimal = false.
//
// A node's closure is its parent's (exclude side) or its parent's plus the
// branched statistic's propagation (include side), and its two cost passes
// settle only what the node reads: the prices of the uncovered
// requirements, then one derivation walk.
func (s *scratch) solveExact(maxNodes int) (*Selection, error) {
	if maxNodes <= 0 {
		maxNodes = 200000
	}

	u := s.u
	n := len(u.Stats)
	baseIn := u.freeObservables()

	// Incumbent from greedy.
	inc := append([]bool(nil), baseIn...)
	if err := s.greedyComplete(inc, nil); err != nil {
		return nil, err
	}
	bestCost := u.ObservedCost(inc)
	best := inc

	// closed is the closure of in; nodes share it read-only.
	type node struct {
		in, out, closed []bool
	}
	stack := []node{{in: baseIn, out: make([]bool, n), closed: s.closure(baseIn, make([]bool, n))}}
	nodes := 0
	exhausted := false

	for len(stack) > 0 {
		if nodes >= maxNodes {
			exhausted = true
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		committed := u.ObservedCost(nd.in)
		if committed >= bestCost-1e-9 {
			continue
		}
		// Lower bound and feasibility in one pass: the max-aggregated
		// derivation price of each uncovered requirement (∞ = no
		// derivation avoids the banned statistics at all).
		var lbExtra float64
		worst := int32(-1)
		s.deriveCosts(nil, nd.closed, nd.out, deriveMax)
		covered := true
		infeasible := false
		for _, r := range u.Required {
			if nd.closed[r] {
				continue
			}
			covered = false
			d := s.cost(r)
			if math.IsInf(d, 1) {
				infeasible = true
				break
			}
			if d > lbExtra {
				lbExtra = d
				worst = r
			}
		}
		if infeasible {
			continue
		}
		if covered {
			if committed < bestCost {
				bestCost = committed
				best = append([]bool(nil), nd.in...)
			}
			continue
		}
		if committed+lbExtra >= bestCost-1e-9 {
			continue
		}
		// Branch on the most expensive unchosen leaf in the cheapest
		// derivation of the most expensive uncovered requirement. An
		// occasional greedy dive refreshes the incumbent; running it at
		// every node would dominate the solve.
		if nodes&0x3F == 1 {
			completion := append([]bool(nil), nd.in...)
			if err := s.greedyComplete(completion, nd.out); err == nil {
				if compCost := u.ObservedCost(completion); compCost < bestCost {
					bestCost = compCost
					best = completion
				}
			}
		}
		s.deriveCosts(nil, nd.closed, nd.out, deriveSum)
		leaves, _, ok := s.walkDerivation(worst)
		if !ok {
			continue
		}
		branch := int32(-1)
		var branchCost float64
		for _, i := range leaves {
			if !nd.in[i] && u.Cost[i] > branchCost {
				branch = i
				branchCost = u.Cost[i]
			}
		}
		if branch < 0 {
			continue
		}
		// Branch: include / exclude the chosen statistic. Explore the
		// include side first (it matches the greedy completion).
		inSide := node{in: append([]bool(nil), nd.in...), out: nd.out, closed: append([]bool(nil), nd.closed...)}
		inSide.in[branch] = true
		s.extend(inSide.closed, branch)
		outSide := node{in: nd.in, out: append([]bool(nil), nd.out...), closed: nd.closed}
		outSide.out[branch] = true
		stack = append(stack, outSide, inSide)
	}

	if math.IsInf(bestCost, 1) {
		return nil, errNoSolution
	}
	return u.selection(best, "exact-bb", !exhausted, nodes), nil
}
