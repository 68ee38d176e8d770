package selector

import (
	"fmt"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// fuzzUniverse builds the selection universe of generated workflow seed:
// at most four relations, union–division on even seeds.
func fuzzUniverse(t *testing.T, seed int64) *Universe {
	t.Helper()
	g, cat, _ := wftest.Generate(seed, wftest.Options{MaxRelations: 4})
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("seed %d: Analyze: %v", seed, err)
	}
	opt := css.DefaultOptions()
	opt.UnionDivision = seed%2 == 0
	res, err := css.Generate(an, opt)
	if err != nil {
		t.Fatalf("seed %d: Generate: %v", seed, err)
	}
	u, err := NewUniverseOpts(res, costmodel.NewMemoryCoster(res, an.Cat), UniverseOptions{})
	if err != nil {
		t.Fatalf("seed %d: NewUniverseOpts: %v", seed, err)
	}
	return u
}

// TestSolverInvariantsFuzz checks, across random workflows, the invariants
// tying the two solvers together: both selections cover S_C and the exact
// solver never loses to greedy.
func TestSolverInvariantsFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short mode")
	}
	for seed := int64(100); seed < 115; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			u := fuzzUniverse(t, seed)
			gr, err := Greedy(u)
			if err != nil {
				t.Fatalf("Greedy: %v", err)
			}
			ex, err := newScratch(u).solveExact(1500)
			if err != nil {
				t.Fatalf("Exact: %v", err)
			}
			for name, sel := range map[string]*Selection{"greedy": gr, "exact": ex} {
				observed := make([]bool, len(u.Stats))
				for _, s := range sel.Observe {
					observed[indexOf(t, u, s)] = true
				}
				if !u.Covered(observed) {
					t.Errorf("%s selection does not cover S_C", name)
				}
			}
			if ex.Cost > gr.Cost+1e-6 {
				t.Errorf("exact cost %v worse than greedy %v", ex.Cost, gr.Cost)
			}
			// Small instances must be solved to proven optimality; wider
			// ones may exhaust the node cap and return their incumbent.
			if len(u.Stats) <= 200 && !ex.Optimal {
				t.Errorf("exact did not prove optimality (nodes %d, stats %d)", ex.Nodes, len(u.Stats))
			}
		})
	}
}
