package selector

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/suite"
)

// A noise-free gate on the planner's representation, next to the timed
// benchmark: wf26 has the plan-heavy workload's largest universe (1,353
// statistics, 10,425 candidate sets), and generating, pricing and solving
// it took about 1.1 million allocations while statistics were identified by
// rendered keys. Interned ids leave about 2,000 — a handful per block plus
// the result's slices — so the bound below trips as soon as anything
// allocates once per candidate set again (a Key() in a rule application, a
// slice per closure).
const wf26AllocBound = 10000

func TestPlannerAllocs(t *testing.T) {
	an, err := suite.MustGet(26).Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var u *Universe
	allocs := testing.AllocsPerRun(3, func() {
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		if u, err = NewUniverseOpts(res, costmodel.NewMemoryCoster(res, an.Cat), UniverseOptions{}); err != nil {
			t.Fatalf("NewUniverseOpts: %v", err)
		}
		if _, err := SelectUniverse(u, Options{Method: MethodExact}); err != nil {
			t.Fatalf("SelectUniverse: %v", err)
		}
	})
	if allocs > wf26AllocBound {
		t.Errorf("generate + universe + exact selection of wf26 allocate %.0f times, bound %d", allocs, wf26AllocBound)
	}

	// On warm scratch a closure and a cost pass allocate nothing.
	s := newScratch(u)
	closed := make([]bool, len(u.Stats))
	if n := testing.AllocsPerRun(10, func() { s.closure(u.Observable, closed) }); n != 0 {
		t.Errorf("closure allocates %.0f times on warm scratch", n)
	}
	for _, mode := range []deriveMode{deriveSum, deriveMax} {
		if n := testing.AllocsPerRun(10, func() { s.deriveCosts(nil, nil, nil, mode) }); n != 0 {
			t.Errorf("deriveCosts(mode %d) allocates %.0f times on warm scratch", mode, n)
		}
	}
}
