// Package adaptive holds the suite-wide contract tests for mid-run
// adaptive re-optimization. They live outside package suite so the full
// 30-workflow × 2-configuration splice matrix gets its own go test
// package budget instead of eating the engine goldens'.
package adaptive

import (
	"context"
	"testing"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// engineConfig is one worker count of the engine.
type engineConfig struct {
	name    string
	workers int
}

// engineConfigs mirrors the engine golden's matrix: sequential and
// worker-parallel.
var engineConfigs = []engineConfig{
	{"batch w1", 1},
	{"batch w4", 4},
}

// forcedSkew provokes a replan at the first block boundary: q=4 against the
// default threshold of 2 trips on any non-vacuous block-0 actual.
var forcedSkew = map[int]float64{0: 4}

// runPlansConfig executes the given per-block trees cold under one engine
// configuration, instrumented the way the adaptive driver instruments its
// segments (the selected statistics, tapped wherever the trees produce them).
func runPlansConfig(cfg engineConfig, an *workflow.Analysis, db engine.DB, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat, inj *faults.Injector) (*engine.Result, error) {
	e := engine.New(an, db, nil)
	e.Workers, e.CollectMetrics, e.Faults = cfg.workers, true, inj
	return e.RunPlansCtx(context.Background(), plans, res, observe)
}

// TestAdaptiveEquivalenceGolden is the adaptive splice contract over the
// whole suite: for every workflow under every engine configuration, a run
// with a forced mid-run replan (estimate skew on block 0) must be
// externally identical to a cold run of the plans the adaptive run finished
// under. Single-block workflows exercise the inert path (no boundary, no
// replan); multi-block ones replan at the first boundary and splice the
// re-optimized cone through the resume path. The replan count must also
// agree across all configurations — the decision is part of the
// deterministic contract, not an execution-strategy artifact.
func TestAdaptiveEquivalenceGolden(t *testing.T) {
	const scale = 0.001
	replanned := 0
	for _, w := range suite.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			db := w.Data(scale)
			refReplans := -1
			for _, cfg := range engineConfigs {
				if raceDetector && cfg.workers == 1 {
					// Same split as the engine golden: sequential legs run in
					// the unraced job.
					continue
				}
				c := core.DefaultConfig()
				c.Workers = cfg.workers
				cy, err := core.Run(w.Graph, w.Catalog, db, c)
				if err != nil {
					t.Fatalf("%s: Run: %v", cfg.name, err)
				}
				singleBlock := len(cy.Analysis.Blocks) == 1
				ar, err := cy.RunOptimizedAdaptiveCtx(context.Background(), core.AdaptiveOptions{Skew: forcedSkew})
				if err != nil {
					t.Fatalf("%s: RunOptimizedAdaptiveCtx: %v", cfg.name, err)
				}
				if singleBlock && len(ar.Replans) != 0 {
					t.Errorf("%s: single-block workflow replanned", cfg.name)
				}
				if refReplans == -1 {
					refReplans = len(ar.Replans)
					if refReplans > 0 {
						replanned++
					}
				} else if len(ar.Replans) != refReplans {
					t.Errorf("%s: %d replan(s), other configs had %d", cfg.name, len(ar.Replans), refReplans)
				}
				cold, err := runPlansConfig(cfg, cy.Analysis, db, ar.Plans, cy.CSS, cy.Selection.Observe, nil)
				if err != nil {
					t.Fatalf("%s: cold run: %v", cfg.name, err)
				}
				diffAdaptive(t, cfg.name, cold, ar.Run)
				if singleBlock {
					// No boundary to check: one configuration pins the inert
					// path, the remaining ones add nothing.
					break
				}
			}
		})
	}
	if replanned == 0 {
		t.Error("no suite workflow tripped the forced replan — the skew knob is dead")
	}
}

// TestAdaptiveLateBlockSkew forces the replan deep into the run: the skew
// sits on block 1 of a three-block chain, so block 0's boundary check
// passes (its estimates are exact), the trip happens only after block 1
// commits, and just the final block is re-optimized — with two completed
// blocks spliced through untouched.
func TestAdaptiveLateBlockSkew(t *testing.T) {
	w := suite.MustGet(8)
	db := w.Data(0.001)
	cy, err := core.Run(w.Graph, w.Catalog, db, core.DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := len(cy.Analysis.Blocks); n != 3 {
		t.Fatalf("wf08 has %d blocks, want 3", n)
	}
	ar, err := cy.RunOptimizedAdaptiveCtx(context.Background(), core.AdaptiveOptions{Skew: map[int]float64{1: 4}})
	if err != nil {
		t.Fatalf("RunOptimizedAdaptiveCtx: %v", err)
	}
	if len(ar.Replans) != 1 {
		t.Fatalf("replans = %d, want 1", len(ar.Replans))
	}
	rec := ar.Replans[0]
	if rec.AtBlock != 1 || rec.Trigger.Block != 1 {
		t.Fatalf("replan at block %d (trigger block %d), want the block-1 boundary", rec.AtBlock, rec.Trigger.Block)
	}
	if len(rec.Reoptimized) != 1 || rec.Reoptimized[0] != 2 {
		t.Fatalf("reoptimized %v, want only the final block [2]", rec.Reoptimized)
	}
	cold, err := runPlansConfig(engineConfigs[0], cy.Analysis, db, ar.Plans, cy.CSS, cy.Selection.Observe, nil)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	diffAdaptive(t, "late-block skew", cold, ar.Run)
}

// TestAdaptiveReplanUnderFaults crosses the adaptive splice with the fault
// ladder's bottom rung: transient faults retried transparently. The fault
// decisions are a pure function of (seed, kind, site, attempt), so a run
// that replans mid-way and a cold run of its final plans face identical
// faults — their outputs must still match, and the retry accounting must
// show the faults actually fired.
func TestAdaptiveReplanUnderFaults(t *testing.T) {
	const scale = 0.001
	inj := faults.New(1, 1, 1, 0)
	for _, id := range []int{8, 13, 24} { // multi-block workflows
		w := suite.MustGet(id)
		label := w.Name
		c := core.DefaultConfig()
		c.Faults = inj
		cy, err := core.Run(w.Graph, w.Catalog, w.Data(scale), c)
		if err != nil {
			t.Fatalf("%s: Run: %v", label, err)
		}
		ar, err := cy.RunOptimizedAdaptiveCtx(context.Background(), core.AdaptiveOptions{Skew: forcedSkew})
		if err != nil {
			t.Fatalf("%s: adaptive run under faults: %v", label, err)
		}
		if len(ar.Replans) == 0 {
			t.Fatalf("%s: forced replan did not fire", label)
		}
		cold, err := runPlansConfig(engineConfigs[0], cy.Analysis, w.Data(scale), ar.Plans, cy.CSS, cy.Selection.Observe, inj)
		if err != nil {
			t.Fatalf("%s: cold run under faults: %v", label, err)
		}
		if cold.Retries == 0 {
			t.Fatalf("%s: injector fired no transient faults — the matrix is vacuous", label)
		}
		diffAdaptive(t, label, cold, ar.Run)
	}
}

// diffAdaptive asserts the spliced adaptive result is externally identical
// to a cold result: sinks, materialized tables, observed statistics and the
// work metric (whose equality proves no completed block re-ran and the cone
// did not double-execute). Per-operator metrics are excluded — the resume
// segments legitimately report zero counts for checkpoint-skipped blocks.
func diffAdaptive(t *testing.T, label string, cold, got *engine.Result) {
	t.Helper()
	view := func(r *engine.Result) *wftest.Result {
		return &wftest.Result{Sinks: r.Sinks, Materialized: r.Materialized, Rows: r.Rows, Observed: r.Observed}
	}
	wftest.NewGolden(view(cold)).Diff(t, label, view(got))
}
