package engine

import (
	"context"
	"errors"
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

// run executes the instrumented initial plan, with or without the
// initial-plan observability filter.
func (f *resumeFixture) run(e *Engine, anyPoint bool) (*Result, error) {
	if anyPoint {
		return e.RunPlansObservingCtx(context.Background(), nil, f.res, f.observe)
	}
	return e.RunPlans(nil, f.res, f.observe)
}

// resume continues from a checkpoint. ResumeObserving is the one resume
// entry point; the fixture observes only what the initial plan exposes, so
// it continues a filtered run's checkpoint to the filtered run's result.
func (f *resumeFixture) resume(e *Engine, cp *Checkpoint) (*Result, error) {
	return e.ResumeObserving(context.Background(), cp, nil, f.res, f.observe)
}

// failingCheckpoint finds (deterministically — the injector is a pure
// function of its seed) a permanent fault pattern that fails the run after
// at least one block completed, and returns the *BlockFailure checkpoint.
func (f *resumeFixture) failingCheckpoint(t *testing.T, anyPoint bool) *Checkpoint {
	t.Helper()
	for seed := uint64(1); seed <= 200; seed++ {
		inj := faults.New(seed, 0.5, 0, faults.SourceRead|faults.Operator)
		_, err := f.run(f.engine(inj), anyPoint)
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
// original run in both observation modes.
func TestResumeEmptyPendingCone(t *testing.T) {
	f := newResumeFixture(t)
	for _, anyPoint := range []bool{false, true} {
		name := observeLabel(anyPoint)
		clean, err := f.run(f.engine(nil), anyPoint)
		if err != nil {
			t.Fatalf("%s: clean run: %v", name, err)
		}
		cp := &Checkpoint{
			BlockOut:     clean.BlockOut,
			Materialized: clean.Materialized,
			Rows:         clean.Rows,
			Observed:     clean.Observed,
		}
		resumed, err := f.resume(f.engine(nil), cp)
		if err != nil {
			t.Fatalf("%s: resume of a complete checkpoint: %v", name, err)
		}
		equalResults(t, name+"/complete-checkpoint", clean, resumed)
		if resumed.Retries != 0 {
			t.Errorf("%s: resume of a complete checkpoint retried %d times", name, resumed.Retries)
		}
	}
}

// TestResumeSameCheckpointTwice resumes one failure checkpoint twice: both
// resumes must complete and match the clean run — the write-once statistics
// store and the block-skip logic make resumption idempotent.
func TestResumeSameCheckpointTwice(t *testing.T) {
	f := newResumeFixture(t)
	for _, anyPoint := range []bool{false, true} {
		name := observeLabel(anyPoint)
		clean, err := f.run(f.engine(nil), anyPoint)
		if err != nil {
			t.Fatalf("%s: clean run: %v", name, err)
		}
		cp := f.failingCheckpoint(t, anyPoint)
		first, err := f.resume(f.engine(nil), cp)
		if err != nil {
			t.Fatalf("%s: first resume: %v", name, err)
		}
		equalResults(t, name+"/first-resume", clean, first)
		second, err := f.resume(f.engine(nil), cp)
		if err != nil {
			t.Fatalf("%s: second resume of the same checkpoint: %v", name, err)
		}
		equalResults(t, name+"/second-resume", clean, second)
	}
}

func observeLabel(anyPoint bool) string {
	if anyPoint {
		return "observing"
	}
	return "filtered"
}
