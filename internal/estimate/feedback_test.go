package estimate

import (
	"math"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
)

func TestQError(t *testing.T) {
	cases := []struct {
		act, est int64
		want     float64
	}{
		{100, 100, 1},
		{0, 0, 1},
		{50, 100, 2},
		{100, 50, 2},
		{1, 3, 3},
		{0, 7, math.Inf(1)},
		{7, 0, math.Inf(1)},
	}
	for _, tc := range cases {
		if got := qError(tc.act, tc.est); got != tc.want {
			t.Errorf("qError(%d, %d) = %v, want %v", tc.act, tc.est, got, tc.want)
		}
	}
}

// suiteActuals runs wf12 (one block, 25 SEs) instrumented and returns the
// estimator over its observations with every non-empty SE cardinality it
// derives: actuals that are exact by construction, for a test to skew.
func suiteActuals(t *testing.T) (*css.Result, *Estimator, map[stats.Target]int64, []stats.Target) {
	t.Helper()
	w := suite.MustGet(12)
	_, res, _, est, _ := pipeline(t, w.Graph, w.Catalog, w.Data(0.002), css.DefaultOptions(), selector.MethodExact)
	actuals := make(map[stats.Target]int64)
	var targets []stats.Target
	for bi, sp := range res.Spaces {
		for _, se := range sp.SEs {
			card, err := est.CardOf(bi, se)
			if err != nil || card == 0 {
				continue
			}
			tg := stats.BlockSE(bi, se)
			actuals[tg] = card
			targets = append(targets, tg)
		}
	}
	if len(targets) < 10 {
		t.Fatalf("wf12 derives %d non-empty SEs, want at least 10 for a 90th percentile to skip one", len(targets))
	}
	return res, est, actuals, targets
}

// TestP90QSingleOutlier pins that one finite outlier among exact
// derivations leaves P90Q at 1: MaxQ reports the outlier, P90Q the typical
// accuracy.
func TestP90QSingleOutlier(t *testing.T) {
	res, est, actuals, targets := suiteActuals(t)
	if fb := BuildFeedback(res, est, actuals); fb.P90Q != 1 || fb.MaxQ != 1 {
		t.Fatalf("exact evidence: p90 %v max %v, want 1 and 1", fb.P90Q, fb.MaxQ)
	}
	actuals[targets[0]] *= 50
	fb := BuildFeedback(res, est, actuals)
	if fb.P90Q != 1 || fb.MaxQ != 50 {
		t.Errorf("one outlier in %d: p90 %v max %v, want 1 and 50", len(targets), fb.P90Q, fb.MaxQ)
	}
}

func TestQuantileOf(t *testing.T) {
	cases := []struct {
		qs   []float64
		p    float64
		want float64
	}{
		{nil, 0.9, 0},
		{[]float64{1}, 0.9, 1},
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 50}, 0.9, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
		{[]float64{1, 2}, 0.9, 2},
		{[]float64{1, 2, 3}, 1.0, 3},
	}
	for _, tc := range cases {
		if got := quantileOf(tc.qs, tc.p); got != tc.want {
			t.Errorf("quantileOf(%v, %v) = %v, want %v", tc.qs, tc.p, got, tc.want)
		}
	}
}

// TestP90QNearestRank pins P90Q as the nearest-rank 90th percentile of the
// finite q-errors: with q-errors 1..n it is q = ceil(0.9·n). No evidence at
// all (nil or empty actuals) gives 0.
func TestP90QNearestRank(t *testing.T) {
	res, est, actuals, targets := suiteActuals(t)
	// BuildFeedback orders targets itself; the q-errors are a set either way.
	for i, tg := range targets {
		actuals[tg] *= int64(i + 1)
	}
	n := len(targets)
	fb := BuildFeedback(res, est, actuals)
	if want := math.Ceil(0.9 * float64(n)); fb.P90Q != want || fb.MaxQ != float64(n) {
		t.Errorf("q-errors 1..%d: p90 %v max %v, want %v and %d", n, fb.P90Q, fb.MaxQ, want, n)
	}
	for _, empty := range []map[stats.Target]int64{nil, {}} {
		if fb := BuildFeedback(res, est, empty); fb.P90Q != 0 || fb.MaxQ != 0 || fb.Total != 0 {
			t.Errorf("no evidence (%v): p90 %v max %v over %d targets, want 0", empty, fb.P90Q, fb.MaxQ, fb.Total)
		}
	}
}

// TestBuildFeedbackOnRun builds the feedback over a real instrumented run
// and checks structure: deterministic SE order, per-rule aggregation, and
// exact q-errors for the paper's exact derivations.
func TestBuildFeedbackOnRun(t *testing.T) {
	g, cat, db := zipfRetail(t, 5)
	_, res, _, est, _ := pipeline(t, g, cat, db, css.DefaultOptions(), selector.MethodExact)

	actuals := make(map[stats.Target]int64)
	for bi, sp := range res.Spaces {
		for _, se := range sp.SEs {
			card, err := est.CardOf(bi, se)
			if err != nil {
				continue
			}
			actuals[stats.BlockSE(bi, se)] = card
		}
	}
	if len(actuals) == 0 {
		t.Fatal("no actuals derived from fixture")
	}

	fb := BuildFeedback(res, est, actuals)
	if fb.Total != len(actuals) || fb.Derivable != len(actuals) {
		t.Fatalf("feedback %d/%d, want %d/%d", fb.Derivable, fb.Total, len(actuals), len(actuals))
	}
	if fb.MaxQ != 1 || fb.MeanQ != 1 {
		t.Fatalf("actuals fed from the estimator itself must be exact: maxQ %v meanQ %v", fb.MaxQ, fb.MeanQ)
	}
	for i := 1; i < len(fb.SEs); i++ {
		a, b := fb.SEs[i-1], fb.SEs[i]
		if a.Block > b.Block || (a.Block == b.Block && a.Target.Set > b.Target.Set) {
			t.Fatalf("SE order not deterministic at %d: %+v before %+v", i, a.Target, b.Target)
		}
	}
	var n int
	for _, r := range fb.Rules {
		n += r.Count
		if r.MaxQ != 1 {
			t.Errorf("rule %s maxQ %v, want 1", r.Rule, r.MaxQ)
		}
	}
	if n != fb.Derivable {
		t.Errorf("rule counts sum to %d, want %d", n, fb.Derivable)
	}
	out := fb.Render()
	if !strings.Contains(out, "targets derivable") || !strings.Contains(out, "rule accuracy") {
		t.Errorf("render missing sections:\n%s", out)
	}
	if fb.Render() != out {
		t.Error("render not deterministic")
	}
}

// TestBuildFeedbackUnderivable pins the mixed case: an SE target with no
// derivation is reported (not skipped) and counted in Total but not in
// Derivable; a chain point with no derivation is silently skipped.
func TestBuildFeedbackUnderivable(t *testing.T) {
	g, cat, db := zipfRetail(t, 5)
	_, res, _, est, _ := pipeline(t, g, cat, db, css.DefaultOptions(), selector.MethodExact)

	full := res.Space(0).Full()
	actuals := map[stats.Target]int64{
		stats.BlockSE(0, full): 10,
		// A chain point outside the statistic universe: skipped silently.
		stats.ChainPoint(0, 0, 99): 5,
	}
	empty := New(res, stats.NewStore())
	fb := BuildFeedback(res, empty, actuals)
	if fb.Total != 1 || fb.Derivable != 0 {
		t.Fatalf("feedback %d/%d, want 0/1 (chain point skipped, SE kept)", fb.Derivable, fb.Total)
	}
	if fb.SEs[0].Derivable {
		t.Fatal("underivable SE marked derivable")
	}
	if !strings.Contains(fb.Render(), "not derivable") {
		t.Fatalf("render must flag underivable targets:\n%s", fb.Render())
	}

	// With the real estimator the same SE is derivable and exact.
	card, err := est.CardOf(0, full)
	if err != nil {
		t.Fatalf("CardOf: %v", err)
	}
	actuals[stats.BlockSE(0, full)] = card
	fb = BuildFeedback(res, est, actuals)
	if fb.Derivable != 1 || fb.MaxQ != 1 {
		t.Fatalf("derivable feedback %d maxQ %v, want 1/1", fb.Derivable, fb.MaxQ)
	}
}

// TestBuildFeedbackVacuous pins the 0/0 tagging: a derivable target whose
// actual and estimate are both zero is vacuous — counted, and excluded from
// the q-error aggregates. The zero estimate comes from a store that holds
// the SE as an observed empty cardinality, layered over the run's
// observations. An over-predicted empty SE is unbounded-empty instead.
func TestBuildFeedbackVacuous(t *testing.T) {
	g, cat, db := zipfRetail(t, 5)
	_, res, _, est, run := pipeline(t, g, cat, db, css.DefaultOptions(), selector.MethodExact)

	full := res.Space(0).Full()
	target := stats.BlockSE(0, full)
	actuals := map[stats.Target]int64{target: 0}
	empty := stats.NewStore()
	if err := empty.Put(&stats.Value{Stat: stats.NewCard(target), Scalar: 0}); err != nil {
		t.Fatal(err)
	}
	empty.Merge(run.Observed)
	fb := BuildFeedback(res, New(res, empty), actuals)
	if fb.Derivable != 1 || fb.Vacuous != 1 {
		t.Fatalf("feedback derivable=%d vacuous=%d, want 1/1", fb.Derivable, fb.Vacuous)
	}
	if !fb.SEs[0].Vacuous || fb.SEs[0].QError != 1 {
		t.Fatalf("vacuous report = %+v", fb.SEs[0])
	}
	if fb.P90Q != 0 || fb.MaxQ != 0 {
		t.Fatalf("vacuous evidence leaked into aggregates: p90 %v max %v", fb.P90Q, fb.MaxQ)
	}
	if fb.Unbounded != 0 || fb.UnboundedEmpty != 0 {
		t.Fatalf("vacuous target counted unbounded: %d (%d empty)", fb.Unbounded, fb.UnboundedEmpty)
	}

	// An over-predicted empty SE is unbounded-empty, not vacuous, and stays
	// out of MaxQ.
	fb = BuildFeedback(res, est, actuals)
	if fb.Unbounded != 1 || fb.UnboundedEmpty != 1 || fb.Vacuous != 0 {
		t.Fatalf("feedback unbounded=%d empty=%d vacuous=%d, want 1/1/0", fb.Unbounded, fb.UnboundedEmpty, fb.Vacuous)
	}
	if fb.MaxQ != 0 || fb.P90Q != 0 {
		t.Fatalf("unbounded evidence leaked into aggregates: p90 %v max %v", fb.P90Q, fb.MaxQ)
	}
}
