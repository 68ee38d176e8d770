package selector

import (
	"fmt"
	"math"
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
	for {
		// Free pricing: anything already computable costs nothing more.
		closed := s.closure(observed, s.closed)
		if u.covers(closed) {
			return nil
		}
		// One shared cost pass prices every uncovered requirement; only the
		// winner's derivation is walked out.
		dist := s.deriveCosts(nil, closed, banned, deriveSum)
		bestCost := math.Inf(1)
		bestR := int32(-1)
		for _, r := range u.Required {
			if closed[r] {
				continue
			}
			if math.IsInf(dist[r], 1) {
				return fmt.Errorf("selector: required statistic %v not derivable", u.Stats[r].Key())
			}
			// Ties break on the lower statistic index, so the pick (and
			// hence the whole greedy run) is deterministic regardless of
			// the order requirements were registered in.
			if dist[r] < bestCost || dist[r] == bestCost && r < bestR {
				bestCost = dist[r]
				bestR = r
			}
		}
		bestLeaves, _, ok := s.walkDerivation(bestR, dist, nil, closed, banned)
		if !ok {
			return fmt.Errorf("selector: required statistic %v not derivable", u.Stats[bestR].Key())
		}
		if len(bestLeaves) == 0 {
			// The cheapest uncovered statistic became computable for free;
			// the closure recomputation above would have caught that, so an
			// empty leaf set with positive cost is a logic error.
			return fmt.Errorf("selector: greedy made no progress (cost %v)", bestCost)
		}
		for _, i := range bestLeaves {
			observed[i] = true
		}
	}
}
