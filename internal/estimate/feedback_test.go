package estimate

import (
	"math"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
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

// TestReplanThresholdSingleOutlier pins the de-flapping fix: one finite
// outlier among otherwise-exact derivations must not widen the threshold —
// the calibration reads P90, not MaxQ.
func TestReplanThresholdSingleOutlier(t *testing.T) {
	outlier := &Feedback{Derivable: 10, Total: 10, MaxQ: 50, MeanQ: 5.9, P90Q: 1}
	if got := outlier.ReplanThreshold(2); got != 2 {
		t.Errorf("single-outlier threshold = %v, want base 2 (P90 calibration)", got)
	}
	// P90Q below 1 cannot narrow the threshold past base.
	sub := &Feedback{Derivable: 2, Total: 2, P90Q: 0.5}
	if got := sub.ReplanThreshold(2); got != 2 {
		t.Errorf("sub-1 P90 threshold = %v, want clamped base 2", got)
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

func TestReplanThreshold(t *testing.T) {
	// Plan-time inaccuracy widens the mid-run trigger: known-shaky
	// estimates deviating within their own envelope is not news.
	exact := &Feedback{Derivable: 4, P90Q: 1}
	if got := exact.ReplanThreshold(2); got != 2 {
		t.Errorf("exact replan threshold = %v, want 2", got)
	}
	shaky := &Feedback{Derivable: 4, P90Q: 3}
	if got := shaky.ReplanThreshold(2); got != 6 {
		t.Errorf("shaky replan threshold = %v, want 6", got)
	}
	var nilFB *Feedback
	if got := nilFB.ReplanThreshold(2); got != 2 {
		t.Errorf("nil replan threshold = %v, want base 2", got)
	}
}

func TestTripsReplan(t *testing.T) {
	fb := &Feedback{SEs: []SEReport{
		{Block: 0, Label: "underivable", Actual: 5},
		{Block: 0, Label: "vacuous", Derivable: true, Vacuous: true, QError: 1},
		{Block: 1, Label: "empty-se", Derivable: true, Actual: 0, Estimate: 7, QError: math.Inf(1)},
		{Block: 1, Label: "exact", Derivable: true, Actual: 10, Estimate: 10, QError: 1},
		{Block: 2, Label: "off", Derivable: true, Actual: 30, Estimate: 10, QError: 3},
	}}
	if rep, ok := fb.TripsReplan(2); !ok || rep.Label != "off" {
		t.Fatalf("TripsReplan(2) = %+v, %v; want the q=3 report", rep, ok)
	}
	if _, ok := fb.TripsReplan(4); ok {
		t.Fatal("TripsReplan(4) tripped below threshold")
	}
	// A broken derivation (estimate 0 against rows that exist) always trips.
	fb.SEs = append(fb.SEs, SEReport{Block: 3, Label: "broken", Derivable: true, Actual: 9, QError: math.Inf(1)})
	if rep, ok := fb.TripsReplan(100); !ok || rep.Label != "broken" {
		t.Fatalf("TripsReplan must trip on hard-unbounded report, got %+v, %v", rep, ok)
	}
	var nilFB *Feedback
	if _, ok := nilFB.TripsReplan(2); ok {
		t.Fatal("nil feedback tripped")
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
// derivation is reported (not skipped) and drops the calibrated threshold
// story to the remaining derivable ones; a chain point with no derivation
// is silently skipped.
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

// TestTripsReplanOnDrift is the adaptive run's evidence without any
// forcing: an estimator over the statistics observed on yesterday's data,
// given the actuals of today's (Orders grown fourfold), reports Orders at
// q 4, trips a replan above the worst disagreement and not at it, and the
// same evidence against today's own statistics is exact and never trips.
func TestTripsReplanOnDrift(t *testing.T) {
	g, cat, db := zipfRetail(t, 5)
	an, res, sel, est, _ := pipeline(t, g, cat, db, css.DefaultOptions(), selector.MethodExact)
	_, _, grown := retailOrders(t, 5, 8000)
	run, err := engine.New(an, grown, nil).RunPlans(nil, res, sel.Observe)
	if err != nil {
		t.Fatalf("RunPlans on today's data: %v", err)
	}
	today := New(res, run.Observed)

	actuals := make(map[stats.Target]int64)
	for bi, sp := range res.Spaces {
		for _, se := range sp.SEs {
			card, err := today.CardOf(bi, se)
			if err != nil || card == 0 {
				continue
			}
			actuals[stats.BlockSE(bi, se)] = card
		}
	}
	if len(actuals) == 0 {
		t.Fatal("no non-empty actuals derived from today's data")
	}

	fb := BuildFeedback(res, est, actuals)
	var orders *SEReport
	for i, r := range fb.SEs {
		if r.Label == "Orders" {
			orders = &fb.SEs[i]
		}
	}
	if orders == nil || orders.QError != 4 {
		t.Fatalf("Orders report %+v, want q 4 (2000 rows yesterday, 8000 today)", orders)
	}
	if fb.Unbounded != 0 || fb.MaxQ < 4 {
		t.Fatalf("drifted evidence: max q %v, %d unbounded; want finite and >= 4", fb.MaxQ, fb.Unbounded)
	}
	rep, ok := fb.TripsReplan(fb.MaxQ - 0.01)
	if !ok || rep.QError <= fb.MaxQ-0.01 {
		t.Fatalf("drift must trip below its worst q-error %v: %+v, %v", fb.MaxQ, rep, ok)
	}
	if rep, ok := fb.TripsReplan(fb.MaxQ); ok {
		t.Fatalf("drift tripped at its own worst q-error: %+v", rep)
	}
	if rep, ok := BuildFeedback(res, today, actuals).TripsReplan(1); ok {
		t.Fatalf("today's evidence against today's statistics tripped: %+v", rep)
	}
}

// TestBuildFeedbackVacuous pins the 0/0 tagging: a derivable target whose
// actual and estimate are both zero is vacuous — counted, excluded from the
// q-error aggregates, and never counted as evidence for the calibration.
// The zero estimate comes from a store that holds the SE as an observed
// empty cardinality, layered over the run's observations the way an
// adaptive replan's shadow store is.
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
	if got := fb.ReplanThreshold(2); got != 2 {
		t.Fatalf("vacuous-only calibration = %v, want base 2 (untested)", got)
	}
	if _, ok := fb.TripsReplan(0); ok {
		t.Fatal("vacuous target tripped replan")
	}

	// An over-predicted empty SE is unbounded-empty, not broken: it never
	// trips a replan.
	fb = BuildFeedback(res, est, actuals)
	if fb.Unbounded != 1 || fb.UnboundedEmpty != 1 {
		t.Fatalf("feedback unbounded=%d empty=%d, want 1/1", fb.Unbounded, fb.UnboundedEmpty)
	}
	if _, ok := fb.TripsReplan(100); ok {
		t.Fatal("empty-SE unbounded target tripped replan")
	}
}
