package engine

import (
	"fmt"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestEnginesMatchReference is the executor oracle over generated inputs:
// for random workflows (chains, multi-way joins, group-by boundaries) with
// random data, the engine at one and four workers must agree with wftest's
// naive reference evaluator on sinks, materialized tables,
// the work metric and every observable statistic.
func TestEnginesMatchReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, cat, db := wftest.Generate(seed, wftest.Options{MaxRelations: 4, MaxCard: 90})
			an, err := workflow.Analyze(g, cat)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			res, err := css.Generate(an, css.DefaultOptions())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			observe := observableStats(res)
			ref := reference(t, an, db, res, observe)
			if ref.Observed.Len() == 0 {
				t.Fatal("the reference observed nothing")
			}
			golden := wftest.NewGolden(ref)
			for _, workers := range []int{1, 4} {
				e := New(an, db, nil)
				e.Workers = workers
				got, err := e.RunPlans(nil, res, observe)
				if err != nil {
					t.Fatalf("w%d: %v", workers, err)
				}
				golden.Diff(t, fmt.Sprintf("w%d", workers), view(got))
			}
		})
	}
}

// observableStats returns every statistic the initial plan can observe, in
// canonical order.
func observableStats(res *css.Result) []stats.Stat {
	var out []stats.Stat
	for id, ok := range res.Observable {
		if ok {
			out = append(out, res.Stats[id])
		}
	}
	return out
}
