package selector

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
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
	w26 := suite.MustGet(26)
	an, err := workflow.Analyze(w26.Graph, w26.Catalog)
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
		pass := func() {
			s.deriveCosts(nil, nil, nil, mode)
			for i := range u.Stats {
				s.cost(int32(i))
			}
		}
		if n := testing.AllocsPerRun(10, pass); n != 0 {
			t.Errorf("deriveCosts(mode %d) allocates %.0f times on warm scratch", mode, n)
		}
	}
}

// TestExactSolveWork pins the exact solver's work in noise-free counts:
// search nodes, and the entries its cost passes take off their frontier
// (stale ones included). The bounds are a tenth of what passes that settled
// the whole graph at every node took (wf21 346,085, wf26 42,273), so they
// trip as soon as a pass settles more than its caller reads again; passes
// that settle only that take 2,353 and 629.
func TestExactSolveWork(t *testing.T) {
	for _, c := range []struct {
		wf, nodes, maxPops int
	}{
		{wf: 21, nodes: 53, maxPops: 34600},
		{wf: 26, nodes: 13, maxPops: 4200},
	} {
		w := suite.MustGet(c.wf)
		an, err := workflow.Analyze(w.Graph, w.Catalog)
		if err != nil {
			t.Fatalf("wf%02d: Analyze: %v", c.wf, err)
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			t.Fatalf("wf%02d: Generate: %v", c.wf, err)
		}
		u, err := NewUniverseOpts(res, costmodel.NewMemoryCoster(res, an.Cat), UniverseOptions{})
		if err != nil {
			t.Fatalf("wf%02d: NewUniverseOpts: %v", c.wf, err)
		}
		s := newScratch(u)
		sel, err := s.solveExact(0)
		if err != nil {
			t.Fatalf("wf%02d: solveExact: %v", c.wf, err)
		}
		t.Logf("wf%02d: %d nodes, %d pops", c.wf, sel.Nodes, s.pops)
		if !sel.Optimal || sel.Nodes != c.nodes {
			t.Errorf("wf%02d: optimal=%t after %d nodes, want optimal after %d", c.wf, sel.Optimal, sel.Nodes, c.nodes)
		}
		if s.pops > c.maxPops {
			t.Errorf("wf%02d: the cost passes took %d entries off their frontier, bound %d", c.wf, s.pops, c.maxPops)
		}
	}
}
