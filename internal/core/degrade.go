package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/payg"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
)

// The degradation ladder. An instrumented run can lose statistics without
// losing the data work: a tap whose observation fails permanently (injected
// permanent fault, mis-declared statistic, store rejection) is dropped and
// reported in engine.Result.Degraded while the block still completes. The
// cycle then walks down the ladder instead of aborting:
//
//  1. Alternate covering CSS — re-select a covering statistics set that
//     avoids every failed statistic (already-held observations are free),
//     and re-run the initial plan instrumented with just the missing ones.
//     Repeated up to maxReselectRounds times as new failures surface.
//  2. Pay-as-you-go — when no covering set avoids the failures, fall back
//     to the Section 7.3 baseline: execute the trivial-CSS plan sequence,
//     learning whatever SE cardinalities the re-ordered plans expose.
//  3. Initial plans — blocks whose cardinalities still cannot be derived
//     keep their user-designed plans (optimizer.Options.FallbackInitial).
//
// Every completed cycle therefore carries plans for all blocks; Degradation
// records how far down the ladder it had to go.

// maxReselectRounds bounds alternate-CSS re-observation attempts before the
// ladder drops to the pay-as-you-go rung.
const maxReselectRounds = 3

// Degradation reports how a cycle completed despite permanent observation
// failures. A nil Degradation on the cycle means the run was clean.
type Degradation struct {
	// Failed lists every statistic whose observation failed permanently,
	// in canonical key order.
	Failed []engine.FailedStat
	// Mode is the ladder rung that completed the cycle: "alternate-css"
	// (a covering selection avoiding the failures was re-observed) or
	// "payg" (the trivial-CSS baseline supplied what it could).
	Mode string
	// Reruns counts extra instrumented executions of the initial plan the
	// alternate-CSS rung performed.
	Reruns int
	// PaygRuns counts executions the pay-as-you-go rung performed.
	PaygRuns int
	// ExtraRows is the additional engine work (work-metric rows) the
	// ladder cost beyond the first instrumented run.
	ExtraRows int64
	// FallbackBlocks lists blocks (ascending) left on their initial plans
	// because their cardinalities remained underivable.
	FallbackBlocks []int
}

// String renders a one-line summary for reports and the CLI.
func (d *Degradation) String() string {
	if d == nil {
		return ""
	}
	s := fmt.Sprintf("degraded: %d statistic(s) unobservable, completed via %s", len(d.Failed), d.Mode)
	if d.Reruns > 0 {
		s += fmt.Sprintf(", %d re-observation run(s)", d.Reruns)
	}
	if d.PaygRuns > 0 {
		s += fmt.Sprintf(", %d payg run(s)", d.PaygRuns)
	}
	if len(d.FallbackBlocks) > 0 {
		s += fmt.Sprintf(", %d block(s) on initial plans", len(d.FallbackBlocks))
	}
	return s
}

// Degraded reports whether the cycle completed via the degradation ladder.
func (cy *Cycle) Degraded() bool { return cy.Degradation != nil }

// degrade walks the ladder after an instrumented run reported permanently
// failed observations. It mutates store (the run's observation store) by
// merging everything later runs learn, and returns the degradation report.
// Only run-level failures (cancellation, permanent operator faults) abort.
func degrade(ctx context.Context, cy *Cycle, eng *engine.Engine, u *selector.Universe, res *css.Result, store *stats.Store, first []engine.FailedStat) (*Degradation, error) {
	deg := &Degradation{}
	failed := make(map[stats.Key]engine.FailedStat, len(first))
	for _, f := range first {
		failed[f.Stat.Key()] = f
	}
	opt := selector.Options{Method: cy.cfg.Method}

	for round := 0; round < maxReselectRounds && deg.Mode == ""; round++ {
		var have []stats.Stat
		for _, v := range store.Values() {
			have = append(have, v.Stat)
		}
		failedStats := make([]stats.Stat, 0, len(failed))
		for _, f := range failed {
			failedStats = append(failedStats, f.Stat)
		}
		alt, err := selector.Reselect(u, have, failedStats, opt)
		if errors.Is(err, selector.ErrNoCover) {
			break // payg is the only rung left
		}
		if err != nil {
			return nil, fmt.Errorf("reselect: %w", err)
		}
		missing := make([]stats.Stat, 0, len(alt.Observe))
		for _, s := range alt.Observe {
			if !store.Has(s) {
				missing = append(missing, s)
			}
		}
		if len(missing) == 0 {
			// The held statistics already cover everything required.
			deg.Mode = "alternate-css"
			break
		}
		rerun, err := eng.RunPlansCtx(ctx, nil, res, missing)
		if err != nil {
			return nil, fmt.Errorf("alternate-css run: %w", err)
		}
		deg.Reruns++
		deg.ExtraRows += rerun.Rows
		store.Merge(rerun.Observed)
		if len(rerun.Degraded) == 0 {
			deg.Mode = "alternate-css"
			break
		}
		for _, f := range rerun.Degraded {
			if _, ok := failed[f.Stat.Key()]; !ok {
				failed[f.Stat.Key()] = f
			}
		}
	}

	if deg.Mode == "" {
		// Pay-as-you-go: run the trivial-CSS baseline sequence and learn
		// whatever SE cardinalities its re-ordered plans expose.
		exec, err := payg.ExecuteCtx(ctx, eng, res, payg.Evaluate(res))
		if err != nil {
			return nil, fmt.Errorf("payg fallback: %w", err)
		}
		deg.Mode = "payg"
		deg.PaygRuns = exec.Runs
		deg.ExtraRows += exec.RowsTotal
		store.Merge(exec.Learned)
	}

	deg.Failed = make([]engine.FailedStat, 0, len(failed))
	for _, f := range failed {
		deg.Failed = append(deg.Failed, f)
	}
	sortFailed(deg.Failed)
	return deg, nil
}

// sortFailed orders failure reports canonically (stats.KeyLess).
func sortFailed(fs []engine.FailedStat) {
	sort.Slice(fs, func(i, j int) bool {
		return stats.KeyLess(fs[i].Stat.Key(), fs[j].Stat.Key())
	})
}
