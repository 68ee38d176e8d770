package suite

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// engineConfig is one worker count of the engine.
type engineConfig struct {
	name    string
	workers int
}

// engineConfigs enumerates every way the product executes a plan:
// sequential and with independent blocks in flight.
var engineConfigs = []engineConfig{
	{"batch w1", 1},
	{"batch w4", 4},
}

// newEngine builds the configuration's engine over the workflow.
func (cfg engineConfig) newEngine(an *workflow.Analysis, db engine.DB) *engine.Engine {
	e := engine.New(an, db, nil)
	e.Workers = cfg.workers
	return e
}

// runConfig executes the instrumented initial plan under one engine
// configuration.
func runConfig(cfg engineConfig, an *workflow.Analysis, db engine.DB, res *css.Result, observe []stats.Stat, metrics bool, inj *faults.Injector) (*engine.Result, error) {
	e := cfg.newEngine(an, db)
	e.CollectMetrics, e.Faults = metrics, inj
	return e.RunPlans(nil, res, observe)
}

// referenceRun evaluates the instrumented initial plan with wftest's naive
// row-at-a-time evaluator — the golden every engine configuration is
// compared against — and sorts its tables once for all the comparisons.
func referenceRun(t *testing.T, an *workflow.Analysis, db engine.DB, res *css.Result, observe []stats.Stat) *wftest.Golden {
	t.Helper()
	plan, err := physical.Compile(an, db, physical.Options{Res: res, Observe: observe})
	if err != nil {
		t.Fatalf("reference: Compile: %v", err)
	}
	ref, err := wftest.Evaluate(plan)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return wftest.NewGolden(ref)
}

// diffRun asserts an engine result is externally identical to the
// reference: sinks, materialized tables, work metric, observed statistics,
// and — when the run collected them — the deterministic metrics.
func diffRun(t *testing.T, label string, golden *wftest.Golden, got *engine.Result, metrics bool) {
	t.Helper()
	golden.Diff(t, label, &wftest.Result{Sinks: got.Sinks, Materialized: got.Materialized, Rows: got.Rows, Observed: got.Observed})
	if metrics {
		diffMetrics(t, label, golden.Ref.Metrics, got.Metrics)
	} else if got.Metrics != nil {
		t.Errorf("%s: metrics collected with CollectMetrics off", label)
	}
}

// TestEngineEquivalenceGolden is the executor contract check: over every
// suite workflow the engine — sequential and worker-parallel — must produce
// sinks, materialized tables, observed statistics, work metric and per-node
// row counts identical to the reference evaluator's, both from one compiled
// physical plan. Any divergence means the interpreter strayed from the
// shared IR's semantics. A second pass repeats the matrix with metrics
// collection off, since the interpreter skips per-node accounting entirely
// in that mode.
func TestEngineEquivalenceGolden(t *testing.T) {
	const scale = 0.001
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			an, err := workflow.Analyze(w.Graph, w.Catalog)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			res, err := css.Generate(an, css.DefaultOptions())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			observe := observableStats(res)
			db := w.Data(scale)
			golden := referenceRun(t, an, db, res, observe)

			for _, metrics := range []bool{true, false} {
				for _, cfg := range engineConfigs {
					if raceDetector && cfg.workers == 1 {
						// Under the race detector only the worker-parallel
						// legs can race; the sequential ones run in the
						// unraced test job.
						continue
					}
					got, err := runConfig(cfg, an, db, res, observe, metrics, nil)
					if err != nil {
						t.Fatalf("%s (metrics=%v): %v", cfg.name, metrics, err)
					}
					diffRun(t, fmt.Sprintf("%s (metrics=%v)", cfg.name, metrics), golden, got, metrics)
				}
			}
		})
	}
}

// diffMetrics compares the deterministic projection of two metrics
// snapshots: node identity and row counts must be bit-identical to the
// reference's at every worker count (timings and call counts are excluded
// from the contract).
func diffMetrics(t *testing.T, label string, ref, got *physical.RunMetrics) {
	t.Helper()
	if (ref == nil) != (got == nil) {
		t.Errorf("%s: one result has no metrics", label)
		return
	}
	if ref == nil {
		return
	}
	if len(got.Nodes) != len(ref.Nodes) {
		t.Errorf("%s: metrics node count %d, want %d", label, len(got.Nodes), len(ref.Nodes))
		return
	}
	for i, rn := range ref.Nodes {
		gn := got.Nodes[i]
		if gn.Block != rn.Block || gn.Node != rn.Node || gn.Op != rn.Op || gn.Label != rn.Label {
			t.Errorf("%s: metrics node %d identity %v/%v %q, want %v/%v %q",
				label, i, gn.Block, gn.Node, gn.Op, rn.Block, rn.Node, rn.Op)
			continue
		}
		if gn.RowsIn != rn.RowsIn || gn.RowsOut != rn.RowsOut {
			t.Errorf("%s: metrics node %d (%s %q) rows %d→%d, want %d→%d",
				label, i, gn.Op, gn.Label, gn.RowsIn, gn.RowsOut, rn.RowsIn, rn.RowsOut)
		}
	}
}

// TestMaxRowsGuard pins the intermediate-cardinality guard on the suite's
// known blowup case: wf24's Zipf-skewed join keys collide on hot values, so
// at larger scales its chain joins multiply far beyond the independence
// estimate. Every configuration must abort with the guard's error before
// materializing the blowup — the guard exists to stop a run while it is
// still small, so each leg's total allocation is bounded too.
func TestMaxRowsGuard(t *testing.T) {
	w := MustGet(24)
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	db := w.Data(0.01)
	const limit = 500_000
	const maxAlloc = 8 << 20
	for _, cfg := range engineConfigs {
		e := cfg.newEngine(an, db)
		e.MaxRows = limit
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := e.RunPlans(nil, nil, nil)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: want a guard error, got success", cfg.name)
			continue
		}
		if !strings.Contains(err.Error(), "intermediate-cardinality guard") {
			t.Errorf("%s: error %q does not mention the guard", cfg.name, err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: tripped after %v, %d MB allocated", cfg.name, elapsed, alloc>>20)
		if alloc > maxAlloc {
			t.Errorf("%s: allocated %d MB before the guard tripped, want < %d MB", cfg.name, alloc>>20, maxAlloc>>20)
		}
	}
	// The guard must not trip where the budget is ample: the same workflow
	// at the goldens' scale stays far below the limit.
	e := engine.New(an, w.Data(0.001), nil)
	e.MaxRows = 100_000_000
	if _, err := e.RunPlans(nil, nil, nil); err != nil {
		t.Errorf("ample budget: %v", err)
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
