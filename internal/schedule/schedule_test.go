package schedule

import (
	"context"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// buildUniverse prepares the selection universe for a suite workflow.
func buildUniverse(t *testing.T, id int) (*selector.Universe, *css.Result, *workflow.Analysis, engine.DB) {
	t.Helper()
	w := suite.MustGet(id)
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	u, err := selector.NewUniverseOpts(res, coster, selector.UniverseOptions{})
	if err != nil {
		t.Fatalf("NewUniverseOpts: %v", err)
	}
	return u, res, an, w.Data(0.002)
}

func TestBuildRespectsBudgetAndRealizes(t *testing.T) {
	u, res, _, _ := buildUniverse(t, 3)
	// Tight budget: multiple runs with re-ordered plans.
	plan, err := Build(u, 64)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(plan.Runs) < 2 {
		t.Fatalf("runs = %d, want >= 2 under a tight budget", len(plan.Runs))
	}
	// Per-run memory within budget.
	for r, run := range plan.Runs {
		var mem int64
		for _, s := range run.Observe {
			i, ok := u.Res.Lookup(s)
			if !ok {
				t.Fatalf("run %d observes unknown stat %v", r, s.Key())
			}
			mem += u.Mem[i]
		}
		if mem > 64 {
			t.Errorf("run %d uses %d units, above budget 64", r, mem)
		}
	}
	// Later runs must carry explicit trees for targets the initial plan
	// does not expose.
	sawTree := false
	for _, run := range plan.Runs[1:] {
		if len(run.Trees) > 0 {
			sawTree = true
		}
	}
	if !sawTree {
		t.Error("no re-ordered trees in later runs")
	}
	_ = res
}

func TestExecuteScheduleCoversAndEstimates(t *testing.T) {
	u, res, an, db := buildUniverse(t, 3)
	plan, err := Build(u, 64)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	eng := engine.New(an, db, nil)
	store, _, err := ExecuteCtx(context.Background(), eng, res, plan)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// The merged observations must let the estimator derive every SE
	// cardinality, and the derived values must match a direct run of the
	// reordered plan.
	est := estimate.New(res, store)
	for bi, sp := range res.Spaces {
		for _, se := range sp.SEs {
			if _, err := est.CardOf(bi, se); err != nil {
				t.Errorf("CardOf(block %d, %v): %v", bi, se, err)
			}
		}
	}
	// Cross-check one learned value against direct observation.
	full := res.Space(0).Full()
	want, err := eng.RunPlans(nil, nil, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, err := est.CardOf(0, full)
	if err != nil {
		t.Fatalf("CardOf(full): %v", err)
	}
	if got != want.BlockOut[0].Card() {
		t.Fatalf("full card %d != reference %d", got, want.BlockOut[0].Card())
	}
}

// TestExecuteParallelMatchesSequential: with Workers > 1 the runs of a
// schedule execute concurrently; the merged store must be identical to
// the sequential execution.
func TestExecuteParallelMatchesSequential(t *testing.T) {
	u, res, an, db := buildUniverse(t, 3)
	plan, err := Build(u, 64)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	seqEng := engine.New(an, db, nil)
	seq, _, err := ExecuteCtx(context.Background(), seqEng, res, plan)
	if err != nil {
		t.Fatalf("sequential Execute: %v", err)
	}
	parEng := engine.New(an, db, nil)
	parEng.Workers = 4
	par, _, err := ExecuteCtx(context.Background(), parEng, res, plan)
	if err != nil {
		t.Fatalf("parallel Execute: %v", err)
	}
	if seq.Len() != par.Len() {
		t.Fatalf("store sizes differ: %d vs %d", seq.Len(), par.Len())
	}
	for _, v := range seq.Values() {
		got, ok := par.Get(v.Stat)
		if !ok {
			t.Errorf("%v missing from the parallel store", v.Stat.Key())
			continue
		}
		if v.Hist != nil {
			if h := got.Hist; h.Total() != v.Hist.Total() || h.Buckets() != v.Hist.Buckets() {
				t.Errorf("hist %v differs", v.Stat.Key())
			}
			continue
		}
		if got.Scalar != v.Scalar {
			t.Errorf("scalar %v: %d vs %d", v.Stat.Key(), v.Scalar, got.Scalar)
		}
	}
}

func TestGenerousBudgetSingleRun(t *testing.T) {
	u, _, _, _ := buildUniverse(t, 3)
	plan, err := Build(u, 1<<40)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(plan.Runs) != 1 {
		t.Fatalf("runs = %d, want 1 under a generous budget", len(plan.Runs))
	}
	if len(plan.Runs[0].Trees) != 0 {
		t.Fatal("the single run must use the initial plan")
	}
}

func TestScheduleFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz skipped in -short mode")
	}
	for seed := int64(500); seed < 512; seed++ {
		g, cat, db := wftest.Generate(seed, wftest.Options{MaxCard: 90})
		an, err := workflow.Analyze(g, cat)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		coster := costmodel.NewMemoryCoster(res, an.Cat)
		u, err := selector.NewUniverseOpts(res, coster, selector.UniverseOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plan, err := Build(u, 48)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		eng := engine.New(an, engine.DB(db), nil)
		store, _, err := ExecuteCtx(context.Background(), eng, res, plan)
		if err != nil {
			t.Fatalf("seed %d: Execute: %v", seed, err)
		}
		est := estimate.New(res, store)
		for bi, sp := range res.Spaces {
			for _, se := range sp.SEs {
				if _, err := est.CardOf(bi, se); err != nil {
					t.Errorf("seed %d: CardOf(block %d, %v): %v", seed, bi, se, err)
				}
			}
		}
	}
}
