// Package adaptive holds the suite-wide contract tests for mid-run
// adaptive re-optimization. They live outside package suite so the full
// 30-workflow × 2-configuration splice matrix gets its own go test
// package budget instead of eating the engine goldens'.
package adaptive

import (
	"context"
	"reflect"
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

// yesterday is the scale every drift pair plans at: the cycle observes
// and optimizes on yesterday's data, and the adaptive run executes its
// plans on today's.
const yesterday = 0.001

// driftPairs pins today's scale, as a multiple of yesterday's, for every
// multi-block suite workflow: each pair trips at least one replan, wf08's
// and wf24's at two boundaries. Single-block workflows have no boundary
// to check and run at half yesterday's scale (wf16's single block explodes
// above it).
var driftPairs = map[int]float64{6: 4, 7: 4, 8: 8, 13: 8, 14: 4, 15: 4, 18: 4, 24: 0.5, 25: 4, 29: 4}

// today is the scale a suite workflow's adaptive run executes at.
func today(id int) float64 {
	if f, ok := driftPairs[id]; ok {
		return yesterday * f
	}
	return yesterday / 2
}

// planYesterday runs one cycle over yesterday's data under c.
func planYesterday(t *testing.T, w *suite.Workflow, c core.Config) *core.Cycle {
	t.Helper()
	cy, err := core.Run(w.Graph, w.Catalog, w.Data(yesterday), c)
	if err != nil {
		t.Fatalf("%s: Run: %v", w.Name, err)
	}
	return cy
}

// runPlansConfig executes the given per-block trees cold under one engine
// configuration, instrumented the way the adaptive driver instruments its
// segments (the selected statistics, tapped wherever the trees produce them).
func runPlansConfig(cfg engineConfig, an *workflow.Analysis, db engine.DB, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat, inj *faults.Injector) (*engine.Result, error) {
	e := engine.New(an, db, nil)
	e.Workers, e.CollectMetrics, e.Faults = cfg.workers, true, inj
	return e.RunPlansCtx(context.Background(), plans, res, observe)
}

// TestAdaptiveEquivalenceGolden is the adaptive splice contract over the
// whole suite: every workflow plans on yesterday's data and runs
// adaptively on today's, under every engine configuration, and the run
// must be externally identical to a cold run of the plans it finished
// under on the same data. Single-block workflows exercise the inert path
// (no boundary, no replan); multi-block ones replan on their drift pair
// and splice the re-optimized cone through the resume path. The replan
// count must agree across all configurations — the decision is part of
// the deterministic contract, not an execution-strategy artifact — and
// replanning must never cost more work than yesterday's plans run
// statically on today's data.
func TestAdaptiveEquivalenceGolden(t *testing.T) {
	for _, w := range suite.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			db := w.Data(today(w.ID))
			_, drifted := driftPairs[w.ID]
			refReplans := -1
			for _, cfg := range engineConfigs {
				if raceDetector && cfg.workers == 1 {
					// Same split as the engine golden: sequential legs run in
					// the unraced job.
					continue
				}
				c := core.DefaultConfig()
				c.Workers = cfg.workers
				cy := planYesterday(t, w, c)
				singleBlock := len(cy.Analysis.Blocks) == 1
				if singleBlock == drifted {
					t.Fatalf("%d block(s), in driftPairs %v: it must list exactly the multi-block workflows", len(cy.Analysis.Blocks), drifted)
				}
				ar, err := cy.RunOptimizedAdaptiveCtx(context.Background(), db, nil)
				if err != nil {
					t.Fatalf("%s: RunOptimizedAdaptiveCtx: %v", cfg.name, err)
				}
				if singleBlock && len(ar.Replans) != 0 {
					t.Errorf("%s: single-block workflow replanned", cfg.name)
				}
				if !singleBlock && len(ar.Replans) == 0 {
					t.Errorf("%s: the drift pair tripped no replan", cfg.name)
				}
				if refReplans == -1 {
					refReplans = len(ar.Replans)
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
				static, err := runPlansConfig(cfg, cy.Analysis, db, cy.Plans.Trees(), cy.CSS, cy.Selection.Observe, nil)
				if err != nil {
					t.Fatalf("%s: static run: %v", cfg.name, err)
				}
				if ar.Run.Rows > static.Rows {
					t.Errorf("%s: adaptive work %d rows, yesterday's plans statically %d", cfg.name, ar.Run.Rows, static.Rows)
				}
			}
		})
	}
}

// TestAdaptiveLateBlockDrift follows wf08's drift pair through both of
// its replans: block 0's boundary trips first and re-optimizes blocks 1
// and 2; the absorbed actuals make block 0's evidence exact, yet block 1's
// own output is still mispredicted, so its boundary trips again and just
// the final block is re-optimized — with two completed blocks spliced
// through untouched.
func TestAdaptiveLateBlockDrift(t *testing.T) {
	w := suite.MustGet(8)
	db := w.Data(today(8))
	cy := planYesterday(t, w, core.DefaultConfig())
	if n := len(cy.Analysis.Blocks); n != 3 {
		t.Fatalf("wf08 has %d blocks, want 3", n)
	}
	ar, err := cy.RunOptimizedAdaptiveCtx(context.Background(), db, nil)
	if err != nil {
		t.Fatalf("RunOptimizedAdaptiveCtx: %v", err)
	}
	if len(ar.Replans) != 2 {
		t.Fatalf("replans = %d, want 2:\n%s", len(ar.Replans), ar.Summary())
	}
	for i, want := range []struct {
		at          int
		reoptimized []int
	}{{0, []int{1, 2}}, {1, []int{2}}} {
		rec := ar.Replans[i]
		if rec.AtBlock != want.at || rec.Trigger.Block != want.at {
			t.Errorf("replan %d at block %d (trigger block %d), want the block-%d boundary", i+1, rec.AtBlock, rec.Trigger.Block, want.at)
		}
		if !reflect.DeepEqual(rec.Reoptimized, want.reoptimized) {
			t.Errorf("replan %d reoptimized %v, want %v", i+1, rec.Reoptimized, want.reoptimized)
		}
	}
	cold, err := runPlansConfig(engineConfigs[0], cy.Analysis, db, ar.Plans, cy.CSS, cy.Selection.Observe, nil)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	diffAdaptive(t, "late-block drift", cold, ar.Run)
}

// TestAdaptiveReplanUnderFaults crosses the adaptive splice with the fault
// ladder's bottom rung: transient faults retried transparently. The fault
// decisions are a pure function of (seed, kind, site, attempt), so a run
// that replans mid-way and a cold run of its final plans face identical
// faults — their outputs must still match, and the retry accounting must
// show the faults actually fired.
func TestAdaptiveReplanUnderFaults(t *testing.T) {
	inj := faults.New(1, 1, 1, 0)
	for _, id := range []int{8, 13, 24} { // multi-block workflows
		w := suite.MustGet(id)
		label := w.Name
		c := core.DefaultConfig()
		c.Faults = inj
		cy := planYesterday(t, w, c)
		db := w.Data(today(id))
		ar, err := cy.RunOptimizedAdaptiveCtx(context.Background(), db, nil)
		if err != nil {
			t.Fatalf("%s: adaptive run under faults: %v", label, err)
		}
		if len(ar.Replans) == 0 {
			t.Fatalf("%s: the drift pair tripped no replan", label)
		}
		cold, err := runPlansConfig(engineConfigs[0], cy.Analysis, db, ar.Plans, cy.CSS, cy.Selection.Observe, inj)
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
