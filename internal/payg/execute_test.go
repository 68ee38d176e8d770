package payg

import (
	"context"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestExecuteBaselineLearnsAllCardinalities(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, cat, db := wftest.Generate(seed, wftest.Options{})
		an, err := workflow.Analyze(g, cat)
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		res, err := css.Generate(an, css.Options{})
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		rep := Evaluate(res)
		eng := engine.New(an, db, nil)
		exec, err := ExecuteCtx(context.Background(), eng, res, rep)
		if err != nil {
			t.Fatalf("seed %d: Execute: %v", seed, err)
		}
		if exec.Runs != rep.Found && rep.Found >= 1 {
			t.Errorf("seed %d: executed %d runs, report said %d", seed, exec.Runs, rep.Found)
		}
		if !learnedEverySE(exec, res) {
			t.Errorf("seed %d: baseline did not learn every SE cardinality after %d runs", seed, exec.Runs)
		}
		// The learned counters must agree with a fresh execution of the
		// initial plan for the SEs that plan produces.
		var observe []stats.Stat
		for bi, sp := range res.Spaces {
			for se := range sp.Initial {
				observe = append(observe, stats.NewCard(stats.BlockSE(bi, se)))
			}
		}
		ref, err := eng.RunPlans(nil, res, observe)
		if err != nil {
			t.Fatalf("seed %d: reference run: %v", seed, err)
		}
		for _, s := range observe {
			want, ok := ref.Observed.Get(s)
			if !ok {
				continue
			}
			got, ok := exec.Learned.Get(s)
			if !ok {
				t.Errorf("seed %d: baseline missing %v", seed, s.Key())
				continue
			}
			if got.Scalar != want.Scalar {
				t.Errorf("seed %d: baseline card %v = %d, reference %d", seed, s.Key(), got.Scalar, want.Scalar)
			}
		}
	}
}

func TestExecuteWorkMultiplier(t *testing.T) {
	// The baseline pays roughly Runs× the engine work of one execution.
	g, cat, db := wftest.Generate(11, wftest.Options{MaxRelations: 5})
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	rep := Evaluate(res)
	eng := engine.New(an, db, nil)
	exec, err := ExecuteCtx(context.Background(), eng, res, rep)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	single, err := eng.RunPlans(nil, nil, nil)
	if err != nil {
		t.Fatalf("single run: %v", err)
	}
	if exec.Runs > 1 && exec.RowsTotal <= single.Rows {
		t.Errorf("baseline total work %d not above one run's %d despite %d runs",
			exec.RowsTotal, single.Rows, exec.Runs)
	}
}

// learnedEverySE reports whether the learned store holds the cardinality of
// every SE of every block — the baseline's success criterion.
func learnedEverySE(r *ExecuteResult, res *css.Result) bool {
	for bi, sp := range res.Spaces {
		for _, se := range sp.SEs {
			if !r.Learned.Has(stats.NewCard(stats.BlockSE(bi, se))) {
				return false
			}
		}
	}
	return true
}
