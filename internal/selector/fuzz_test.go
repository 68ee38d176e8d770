package selector

import (
	"fmt"
	"math"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestSolverInvariantsFuzz checks, across random workflows, the invariants
// tying the three solvers together: every solver's selection covers S_C,
// the exact solver never loses to greedy, and (on small universes) the
// paper's LP formulation agrees with the combinatorial optimum.
func TestSolverInvariantsFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short mode")
	}
	for seed := int64(100); seed < 115; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, cat, _ := wftest.Generate(seed, wftest.Options{MaxRelations: 4})
			an, err := workflow.Analyze(g, cat)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			opt := css.DefaultOptions()
			opt.UnionDivision = seed%2 == 0
			res, err := css.Generate(an, opt)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			coster := costmodel.NewMemoryCoster(res, an.Cat)
			u, err := NewUniverse(res, coster)
			if err != nil {
				t.Fatalf("NewUniverse: %v", err)
			}
			gr, err := Greedy(u)
			if err != nil {
				t.Fatalf("Greedy: %v", err)
			}
			ex, err := Exact(u, ExactOptions{MaxNodes: 1500})
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
			// LP agreement on small universes only (the dense simplex
			// re-solves from scratch at every branch-and-bound node, so it
			// is the bottleneck, not the formulation). When the node budget
			// expires before proof, the incumbent must still not beat the
			// combinatorial optimum.
			if len(u.Stats) <= 60 && ex.Optimal {
				lpSel, err := SolveLP(u, LPOptions{MaxNodes: 500})
				if err != nil {
					t.Fatalf("SolveLP: %v", err)
				}
				if lpSel.Optimal && math.Abs(lpSel.Cost-ex.Cost) > 1e-6 {
					t.Errorf("LP cost %v != exact %v", lpSel.Cost, ex.Cost)
				}
				if lpSel.Cost < ex.Cost-1e-6 {
					t.Errorf("LP found %v below the proven optimum %v", lpSel.Cost, ex.Cost)
				}
			}
		})
	}
}
