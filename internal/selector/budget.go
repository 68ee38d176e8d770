package selector

import "fmt"

// BudgetPlan schedules statistic observation across multiple executions
// under a per-run memory limit, per Section 6.1: when the optimal
// observation set does not fit in memory, the framework mixes cheap trivial
// CSSs with distribution observations, re-ordering the plan in later runs
// so that statistics unobservable under the initial plan become directly
// observable.
type BudgetPlan struct {
	// Runs lists, per execution, the indexes (into Universe.Stats) of the
	// statistics observed during that execution.
	Runs [][]int
	// Memory lists the per-run memory use in integer units.
	Memory []int64
	// TotalCost is the summed observation cost across runs.
	TotalCost float64
}

// NumRuns returns the number of executions the plan needs.
func (p *BudgetPlan) NumRuns() int { return len(p.Runs) }

// PlanWithBudget produces a multi-run observation schedule under a per-run
// memory budget (in integer units). The first run may only observe
// statistics observable under the initial plan; later runs are assumed
// re-ordered so any statistic becomes observable (the trivial-CSS
// exploitation of Section 6.1 and of the pay-as-you-go baseline).
// Statistics gathered in earlier runs are free thereafter. An error is
// returned when even a single statistic exceeds the budget and no cheaper
// covering alternative exists.
func PlanWithBudget(u *Universe, budget int64) (*BudgetPlan, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("selector: budget must be positive, got %d", budget)
	}
	plan := &BudgetPlan{}
	s := newScratch(u)
	// learned marks statistics whose values are already known from
	// previous runs (free for closure purposes).
	learned := make([]bool, len(u.Stats))
	firstRun := true
	for run := 0; run < 1000; run++ {
		if u.covers(s.closure(learned, s.closed)) {
			return plan, nil
		}
		picked, mem, err := s.planOneRun(learned, budget, firstRun)
		if err != nil {
			return nil, err
		}
		plan.Runs = append(plan.Runs, picked)
		plan.Memory = append(plan.Memory, mem)
		for _, i := range picked {
			learned[i] = true
			plan.TotalCost += u.Cost[i]
		}
		firstRun = false
	}
	return nil, fmt.Errorf("selector: budget planning did not converge within 1000 runs")
}

// planOneRun greedily fills one execution's budget with the most useful
// observations. observableNow widens after the first run because the plan
// can be re-ordered to expose any sub-expression.
func (s *scratch) planOneRun(learned []bool, budget int64, firstRun bool) ([]int, int64, error) {
	u := s.u
	obs := make([]bool, len(u.Stats))
	for i := range obs {
		// After the first run the plan can be re-ordered to expose any
		// statistic's target directly.
		obs[i] = !firstRun || u.Observable[i]
	}
	var picked []int
	var used int64
	cur := append([]bool(nil), learned...)
	banned := make([]bool, len(u.Stats))
	var bestLeaves []int32
	closed := s.closure(cur, s.closed)
	for {
		if u.covers(closed) {
			return picked, used, nil
		}
		// Cheapest derivation of any uncovered requirement, restricted to
		// statistics that fit the remaining budget. One cost pass prices
		// them all, settled as far as their derivation walks read.
		for i := range banned {
			banned[i] = u.Mem[i] > budget-used
		}
		s.deriveCosts(obs, closed, banned, deriveSum)
		bestCost := -1.0
		for _, r := range u.Required {
			if closed[r] {
				continue
			}
			leaves, cost, ok := s.walkDerivation(r)
			if !ok {
				continue
			}
			var memNeed int64
			for _, i := range leaves {
				memNeed += u.Mem[i]
			}
			if memNeed > budget-used {
				continue
			}
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				bestLeaves = append(bestLeaves[:0], leaves...)
			}
		}
		if bestCost < 0 {
			// Nothing else fits this run. If the run is empty the budget
			// cannot cover even one requirement's cheapest derivation.
			if len(picked) == 0 {
				return nil, 0, fmt.Errorf("selector: memory budget %d cannot cover any remaining requirement", budget)
			}
			return picked, used, nil
		}
		if len(bestLeaves) == 0 {
			return nil, 0, fmt.Errorf("selector: budget planning made no progress")
		}
		for _, i := range bestLeaves {
			cur[i] = true
			picked = append(picked, int(i))
			used += u.Mem[i]
			s.extend(closed, i)
		}
	}
}
