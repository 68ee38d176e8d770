package selector

import (
	"fmt"
	"slices"
)

// Greedy implements the heuristic of Section 5.3: repeatedly pick the
// cheapest way to cover one of the still-uncovered required statistics,
// re-pricing after every pick because statistics already chosen are free
// for subsequent covers. Zero-cost observable statistics (e.g. free source
// statistics, Section 6.2) are taken up front.
func Greedy(u *Universe) (*Selection, error) {
	observed := u.freeObservables()
	if err := newScratch(u).greedyComplete(observed, nil); err != nil {
		return nil, err
	}
	return u.selection(observed, "greedy", false, 0), nil
}

// greedyComplete extends the observation set until every required statistic
// is covered, never touching banned statistics. It mutates observed.
func (s *scratch) greedyComplete(observed, banned []bool) error {
	u := s.u
	closed := s.closure(observed, s.closed)
	for !u.covers(closed) {
		// Free pricing: anything already computable costs nothing more. The
		// pass settles as far as the cheapest uncovered requirement and the
		// walk of its derivation.
		s.deriveCosts(nil, closed, banned, deriveSum)
		bestR := s.cheapestRequired()
		if bestR < 0 {
			// The pass completed without reaching an uncovered requirement:
			// none is derivable.
			r := u.Required[slices.IndexFunc(u.Required, func(r int32) bool { return !closed[r] })]
			return fmt.Errorf("selector: required statistic %v not derivable", u.Stats[r].Key())
		}
		bestLeaves, bestCost, _ := s.walkDerivation(bestR)
		if len(bestLeaves) == 0 {
			// The cheapest uncovered statistic became computable for free;
			// the closure would have caught that, so an empty leaf set with
			// positive cost is a logic error.
			return fmt.Errorf("selector: greedy made no progress (cost %v)", bestCost)
		}
		for _, i := range bestLeaves {
			observed[i] = true
			s.extend(closed, i)
		}
	}
	return nil
}
