package engine

import (
	"reflect"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// multiBlockFixture holds the shared multi-block workflow under test.
type multiBlockFixture struct {
	an      *workflow.Analysis
	db      DB
	res     *css.Result
	observe []stats.Stat
}

func newMultiBlockFixture(t *testing.T) *multiBlockFixture {
	t.Helper()
	return newFixture(t, multiBlockGraph())
}

// newChainFixture is the fixture over chainGraph: block 0 feeds block 2,
// one chain, and block 1 is a chain of its own.
func newChainFixture(t *testing.T) *multiBlockFixture {
	t.Helper()
	return newFixture(t, chainGraph())
}

func newFixture(t *testing.T, g *workflow.Graph) *multiBlockFixture {
	t.Helper()
	db, cat := tinyDB()
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Blocks) < 3 {
		t.Fatalf("want a multi-block analysis, got %d blocks", len(an.Blocks))
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return &multiBlockFixture{an: an, db: db, res: res, observe: observableStats(res)}
}

// chainGraph is two chains: Orders grouped, then joined to Customer, and
// Product grouped, each to a sink of its own.
func chainGraph() *workflow.Graph {
	b := workflow.NewBuilder("chains")
	g1 := b.GroupBy(b.Source("Orders"), workflow.Attr{Rel: "Orders", Col: "cid"})
	j := b.Join(g1, b.Source("Customer"), workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j, "a")
	b.Sink(b.GroupBy(b.Source("Product"), workflow.Attr{Rel: "Product", Col: "pid"}), "b")
	return b.Graph()
}

// engine builds an engine over the fixture, optionally faulted.
func (f *multiBlockFixture) engine(flt *faults.Injector) *Engine {
	e := New(f.an, f.db, nil)
	e.Faults = flt
	return e
}

// run executes the instrumented initial plan.
func (f *multiBlockFixture) run(e *Engine) (*Result, error) {
	return e.RunPlans(nil, f.res, f.observe)
}

// TestMetricsAcrossTransientRetries fails every block's first attempt at
// its first non-scan operator, after the scans recorded their rows: each
// retry must start its block's node metrics from zero, so every node's
// RowsIn/RowsOut, the actuals and the work metric equal a clean run's —
// in-process at 1 and 4 workers, and on workers through a dispatcher.
func TestMetricsAcrossTransientRetries(t *testing.T) {
	f := newMultiBlockFixture(t)
	clean := f.engine(nil)
	clean.CollectMetrics = true
	want, err := f.run(clean)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for _, tc := range []struct {
		name     string
		workers  int
		dispatch bool
	}{
		{"workers=1", 1, false},
		{"workers=4", 4, false},
		{"dispatched", 1, true},
	} {
		e := f.engine(faults.New(7, 1, 1, faults.Operator))
		e.Workers, e.CollectMetrics = tc.workers, true
		if tc.dispatch {
			e.Dispatch = &loopDispatcher{f: f, slots: 2}
		}
		got, err := f.run(e)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Retries != int64(len(f.an.Blocks)) {
			t.Errorf("%s: %d retries, want one per block (%d)", tc.name, got.Retries, len(f.an.Blocks))
		}
		if got.Rows != want.Rows {
			t.Errorf("%s: work metric %d, want %d", tc.name, got.Rows, want.Rows)
		}
		if len(got.Metrics.Nodes) != len(want.Metrics.Nodes) {
			t.Fatalf("%s: %d node metrics, want %d", tc.name, len(got.Metrics.Nodes), len(want.Metrics.Nodes))
		}
		for i, g := range got.Metrics.Nodes {
			if w := want.Metrics.Nodes[i]; g.RowsIn != w.RowsIn || g.RowsOut != w.RowsOut {
				t.Errorf("%s: block %d node %d (%s): rows in/out %d/%d, want %d/%d",
					tc.name, g.Block, g.Node, g.Label, g.RowsIn, g.RowsOut, w.RowsIn, w.RowsOut)
			}
		}
		if g, w := got.Metrics.Actuals(), want.Metrics.Actuals(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: actuals %v, want %v", tc.name, g, w)
		}
	}
}
