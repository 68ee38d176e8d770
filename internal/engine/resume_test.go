package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// resumeFixture holds the shared multi-block workflow under test.
type resumeFixture struct {
	an      *workflow.Analysis
	db      DB
	res     *css.Result
	observe []stats.Stat
}

func newResumeFixture(t *testing.T) *resumeFixture {
	t.Helper()
	db, cat := tinyDB()
	an, err := workflow.Analyze(multiBlockGraph(), cat)
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
	return &resumeFixture{an: an, db: db, res: res, observe: observableStats(res)}
}

// engine builds an engine over the fixture, optionally faulted.
func (f *resumeFixture) engine(flt *faults.Injector) *Engine {
	e := New(f.an, f.db, nil)
	e.Faults = flt
	return e
}

// run executes the instrumented initial plan.
func (f *resumeFixture) run(e *Engine) (*Result, error) {
	return e.RunPlans(nil, f.res, f.observe)
}

// resume continues from a checkpoint to the run's result.
func (f *resumeFixture) resume(e *Engine, cp *Checkpoint) (*Result, error) {
	return e.Resume(context.Background(), cp, nil, f.res, f.observe)
}

// failingCheckpoint finds (deterministically — the injector is a pure
// function of its seed) a permanent fault pattern that fails the run after
// at least one block completed, and returns the *BlockFailure checkpoint.
func (f *resumeFixture) failingCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	for seed := uint64(1); seed <= 200; seed++ {
		inj := faults.New(seed, 0.5, 0, faults.SourceRead|faults.Operator)
		_, err := f.run(f.engine(inj))
		var bf *BlockFailure
		if errors.As(err, &bf) && len(bf.Checkpoint.BlockOut) > 0 {
			return bf.Checkpoint
		}
	}
	t.Fatal("no seed in 1..200 produced a mid-run permanent failure")
	return nil
}

// TestResumeEmptyPendingCone resumes a checkpoint that already contains
// every block: nothing re-executes, and the result — sinks routed from the
// checkpointed outputs, work metric, observed statistics — must equal the
// original run.
func TestResumeEmptyPendingCone(t *testing.T) {
	f := newResumeFixture(t)
	clean, err := f.run(f.engine(nil))
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cp := &Checkpoint{
		BlockOut:     clean.BlockOut,
		Materialized: clean.Materialized,
		Rows:         clean.Rows,
		Observed:     clean.Observed,
	}
	resumed, err := f.resume(f.engine(nil), cp)
	if err != nil {
		t.Fatalf("resume of a complete checkpoint: %v", err)
	}
	equalResults(t, "complete-checkpoint", clean, resumed)
	if resumed.Retries != 0 {
		t.Errorf("resume of a complete checkpoint retried %d times", resumed.Retries)
	}
}

// TestResumeSameCheckpointTwice resumes one failure checkpoint twice: both
// resumes must complete and match the clean run — the write-once statistics
// store and the block-skip logic make resumption idempotent.
func TestResumeSameCheckpointTwice(t *testing.T) {
	f := newResumeFixture(t)
	clean, err := f.run(f.engine(nil))
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cp := f.failingCheckpoint(t)
	first, err := f.resume(f.engine(nil), cp)
	if err != nil {
		t.Fatalf("first resume: %v", err)
	}
	equalResults(t, "first-resume", clean, first)
	second, err := f.resume(f.engine(nil), cp)
	if err != nil {
		t.Fatalf("second resume of the same checkpoint: %v", err)
	}
	equalResults(t, "second-resume", clean, second)
}

// TestMetricsAcrossTransientRetries fails every block's first attempt at
// its first non-scan operator, after the scans recorded their rows: each
// retry must start its block's node metrics from zero, so every node's
// RowsIn/RowsOut, the actuals and the work metric equal a clean run's —
// in-process at 1 and 4 workers, and on workers through a dispatcher.
func TestMetricsAcrossTransientRetries(t *testing.T) {
	f := newResumeFixture(t)
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
