package suite

import (
	"fmt"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/payg"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestInitialPlanTapsWhatIsObservable ties css's observability classifier
// to the compiler's one observation rule — a tap goes wherever the compiled
// trees produce its target. Over the suite workflows and 200 generated
// ones, the initial plan compiled with every universe statistic taps
// exactly the statistics css marks observable, and every re-ordered plan
// of the pay-as-you-go baseline compiles with all of them: no statistic is
// dropped for columns its point cannot resolve.
func TestInitialPlanTapsWhatIsObservable(t *testing.T) {
	type workload struct {
		name string
		an   func() (*workflow.Analysis, error)
		db   func() engine.DB
	}
	var wls []workload
	for _, w := range All() {
		wls = append(wls, workload{
			w.Name,
			func() (*workflow.Analysis, error) { return workflow.Analyze(w.Graph, w.Catalog) },
			func() engine.DB { return w.Data(0.001) },
		})
	}
	for seed := int64(0); seed < 200; seed++ {
		g, cat, db := wftest.Generate(seed, wftest.Options{})
		wls = append(wls, workload{
			fmt.Sprintf("rand%d", seed),
			func() (*workflow.Analysis, error) { return workflow.Analyze(g, cat) },
			func() engine.DB { return db },
		})
	}
	var tapped, requested, reordered int
	for _, wl := range wls {
		an, err := wl.an()
		if err != nil {
			t.Fatalf("%s: Analyze: %v", wl.name, err)
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Generate: %v", wl.name, err)
		}
		db := wl.db()
		observe := append([]stats.Stat(nil), res.Stats...)
		want := make(map[stats.Key]bool)
		for id, s := range res.Stats {
			want[s.Key()] = res.Observable[id]
		}
		plan, err := physical.Compile(an, db, physical.Options{Res: res, Observe: observe})
		if err != nil {
			t.Fatalf("%s: initial plan: %v", wl.name, err)
		}
		got := tappedKeys(plan)
		for k, obs := range want {
			if got[k] != obs {
				t.Errorf("%s: %v tapped %v, observable %v", wl.name, k, got[k], obs)
			}
			if obs {
				tapped++
			}
		}
		requested += len(want)

		for _, br := range payg.Evaluate(res).PerBlock {
			for i, tree := range br.Plans {
				opt := physical.Options{Plans: map[int]*workflow.JoinTree{br.Block: tree}, Res: res, Observe: observe}
				if _, err := physical.Compile(an, db, opt); err != nil {
					t.Errorf("%s: block %d re-ordered plan %d: %v", wl.name, br.Block, i, err)
				}
				reordered++
			}
		}
	}
	t.Logf("%d workflows: %d of %d statistics tapped on the initial plan; %d re-ordered plans compile", len(wls), tapped, requested, reordered)
}

// tappedKeys collects every statistic the plan taps: node taps, reject
// singletons and auxiliary joins.
func tappedKeys(plan *physical.Plan) map[stats.Key]bool {
	out := make(map[stats.Key]bool)
	for _, bp := range plan.Blocks {
		for _, n := range bp.Nodes {
			for _, tap := range n.Taps {
				out[tap.Stat.Key()] = true
			}
			for _, rt := range []*physical.RejectTaps{n.LeftReject, n.RightReject} {
				if rt == nil {
					continue
				}
				for _, tap := range rt.Singles {
					out[tap.Stat.Key()] = true
				}
				for _, aj := range rt.Aux {
					out[aj.Stat.Key()] = true
				}
			}
		}
	}
	return out
}
