package selector

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// buildApproxUniverse mirrors buildUniverse with the approximate tier.
func buildApproxUniverse(t *testing.T, policy ApproxPolicy) *Universe {
	t.Helper()
	g, cat := retail(t)
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	u, err := NewUniverseOpts(res, coster, UniverseOptions{Approx: policy})
	if err != nil {
		t.Fatalf("NewUniverseOpts: %v", err)
	}
	return u
}

func TestApproxUniverseAddsVariants(t *testing.T) {
	exact := buildApproxUniverse(t, ApproxPolicy{})
	approx := buildApproxUniverse(t, ApproxPolicy{Enable: true})
	if len(approx.Stats) <= len(exact.Stats) {
		t.Fatalf("approx universe has %d stats, exact %d — no variants admitted",
			len(approx.Stats), len(exact.Stats))
	}
	sketches := 0
	for i, s := range approx.Stats {
		if !s.Kind.Approx() {
			continue
		}
		sketches++
		if !approx.Observable[i] {
			t.Fatalf("sketch variant %v not observable", s.Key())
		}
		ex, ok := stats.ExactVariant(s)
		if !ok {
			t.Fatalf("variant %v has no exact sibling", s.Key())
		}
		j, found := approx.lookup(ex)
		if !found {
			t.Fatalf("exact sibling of %v missing from universe", s.Key())
		}
		// Observing only the sketch must make the exact statistic
		// computable via the A1/A2 candidate set.
		observed := make([]bool, len(approx.Stats))
		observed[i] = true
		if !approx.closure(observed)[j] {
			t.Fatalf("observing %v does not cover %v", s.Key(), ex.Key())
		}
		// Kind-aware pricing: the sketch's fixed budget (HLL 64, CM 192
		// units) must be strictly cheaper than the exact sibling's domain.
		if approx.Cost[i] >= approx.Cost[j] {
			t.Fatalf("sketch %v costs %.1f, exact sibling %.1f", s.Key(), approx.Cost[i], approx.Cost[j])
		}
	}
	if sketches == 0 {
		t.Fatal("no sketch variants in the approx universe")
	}
}

// TestApproxSelectionPrefersSketches: every solver, given the cheaper
// sketch alternatives, covers S_C at no more cost than the exact-only
// selection, and the greedy/exact ones actually pick sketches.
func TestApproxSelectionPrefersSketches(t *testing.T) {
	exactU := buildApproxUniverse(t, ApproxPolicy{})
	approxU := buildApproxUniverse(t, ApproxPolicy{Enable: true})
	for _, m := range []Method{MethodGreedy, MethodExact} {
		exSel, err := SelectUniverse(exactU, Options{Method: m})
		if err != nil {
			t.Fatalf("method %v exact universe: %v", m, err)
		}
		apSel, err := SelectUniverse(approxU, Options{Method: m})
		if err != nil {
			t.Fatalf("method %v approx universe: %v", m, err)
		}
		if apSel.Cost > exSel.Cost {
			t.Errorf("method %v: approx selection costs %.1f, exact-only %.1f",
				m, apSel.Cost, exSel.Cost)
		}
		observed := make([]bool, len(approxU.Stats))
		for _, s := range apSel.Observe {
			observed[indexOf(t, approxU, s)] = true
		}
		if !approxU.Covered(observed) {
			t.Fatalf("method %v: approx selection does not cover S_C", m)
		}
	}
}
