package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/faults"
)

// TestDegradedCyclePermanentTapFaults is the ladder's contract: permanent
// tap faults — at any rate up to "every tap fails" — never abort the
// cycle. It completes with plans for every block, reports the rung used
// (alternate covering CSS or pay-as-you-go), and produces identical sink
// output to a fault-free run (tap faults lose observations, never data).
func TestDegradedCyclePermanentTapFaults(t *testing.T) {
	g, cat, db := skewedRetail(t)
	clean, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("clean Run: %v", err)
	}

	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"some-taps", 0.4},
		{"all-taps", 1},
	} {
		t.Run(tc.name+"/batch", func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Faults = faults.New(11, tc.rate, 0, faults.Tap) // transient=0: permanent
			cy, err := Run(g, cat, db, cfg)
			if err != nil {
				t.Fatalf("faulted Run aborted: %v", err)
			}
			if !cy.Degraded() {
				t.Fatal("rate>0 permanent tap faults produced a clean cycle")
			}
			deg := cy.Degradation
			if len(deg.Failed) == 0 {
				t.Fatal("degradation report lists no failed statistics")
			}
			if deg.Mode != "alternate-css" && deg.Mode != "payg" {
				t.Fatalf("unexpected degradation mode %q", deg.Mode)
			}
			if tc.rate == 1 && deg.Mode != "payg" {
				// Every tap site fails, including re-observation and
				// payg taps; only the payg rung (and then initial-plan
				// fallback) remains.
				t.Fatalf("all taps failed but mode is %q", deg.Mode)
			}
			if cy.Plans == nil || len(cy.Plans.Plans) != len(cy.Analysis.Blocks) {
				t.Fatal("degraded cycle is missing block plans")
			}
			for _, bi := range deg.FallbackBlocks {
				if p := cy.Plans.Plans[bi]; p == nil {
					t.Fatalf("fallback block %d has no plan", bi)
				}
			}
			// Data output is untouched by observation loss.
			for name, tbl := range clean.Observed.Sinks {
				got := cy.Observed.Sinks[name]
				if got == nil || got.Card() != tbl.Card() {
					t.Fatalf("sink %q differs under tap faults", name)
				}
			}
			if t.Failed() {
				return
			}
			t.Logf("mode=%s failed=%d reruns=%d payg=%d fallback-blocks=%d",
				deg.Mode, len(deg.Failed), deg.Reruns, deg.PaygRuns, len(deg.FallbackBlocks))
		})
	}
}

// TestAlternateCSSRungReached scans injector seeds at a low tap-fault rate
// until the ladder completes on its middle rung: at least one seed must
// lose a statistic the covering structure can route around, producing an
// "alternate-css" cycle with no fallback blocks (every cardinality still
// derivable, so the optimizer runs at full strength).
func TestAlternateCSSRungReached(t *testing.T) {
	g, cat, db := skewedRetail(t)
	for seed := uint64(1); seed <= 32; seed++ {
		cfg := DefaultConfig()
		cfg.Faults = faults.New(seed, 0.15, 0, faults.Tap)
		cy, err := Run(g, cat, db, cfg)
		if err != nil {
			t.Fatalf("seed %d: Run aborted: %v", seed, err)
		}
		if cy.Degradation == nil || cy.Degradation.Mode != "alternate-css" {
			continue
		}
		if n := len(cy.Degradation.FallbackBlocks); n != 0 {
			t.Fatalf("seed %d: alternate-css rung left %d fallback blocks", seed, n)
		}
		if cy.Degradation.Reruns == 0 {
			// Covered by held statistics alone — still the middle rung,
			// but keep scanning for a seed that exercises re-observation.
			continue
		}
		t.Logf("seed %d: alternate-css with %d failed, %d rerun(s)", seed, len(cy.Degradation.Failed), cy.Degradation.Reruns)
		return
	}
	t.Fatal("no injector seed in 1..32 completed via the alternate-css rung with a re-observation run")
}

// TestPaygAfterAlternateCSSRungReached scans injector seeds until the
// ladder walks both its rungs: the alternate-CSS rung re-observes at least
// once, still cannot cover the failures, and the cycle completes via
// pay-as-you-go with a plan for every block and the clean run's sinks.
func TestPaygAfterAlternateCSSRungReached(t *testing.T) {
	g, cat, db := skewedRetail(t)
	clean, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("clean Run: %v", err)
	}
	for seed := uint64(1); seed <= 64; seed++ {
		cfg := DefaultConfig()
		cfg.Faults = faults.New(seed, 0.3, 0, faults.Tap)
		cy, err := Run(g, cat, db, cfg)
		if err != nil {
			t.Fatalf("seed %d: Run aborted: %v", seed, err)
		}
		deg := cy.Degradation
		if deg == nil || deg.Mode != "payg" || deg.Reruns == 0 {
			continue
		}
		if deg.PaygRuns == 0 {
			t.Fatalf("seed %d: payg mode without a payg run", seed)
		}
		if cy.Plans == nil || len(cy.Plans.Plans) != len(cy.Analysis.Blocks) {
			t.Fatalf("seed %d: degraded cycle is missing block plans", seed)
		}
		for name, tbl := range clean.Observed.Sinks {
			if !sameRows(tbl, cy.Observed.Sinks[name]) {
				t.Fatalf("seed %d: sink %q differs from the clean run", seed, name)
			}
		}
		t.Logf("seed %d: %d failed, %d alternate-css rerun(s), %d payg run(s)", seed, len(deg.Failed), deg.Reruns, deg.PaygRuns)
		return
	}
	t.Fatal("no injector seed in 1..64 completed via payg after an alternate-css rerun")
}

// sameRows reports whether two tables hold the same multiset of rows.
func sameRows(a, b *data.Table) bool {
	if a == nil || b == nil || a.Card() != b.Card() {
		return false
	}
	sorted := func(t *data.Table) []data.Row {
		rows := slices.Clone(t.Rows)
		slices.SortFunc(rows, func(x, y data.Row) int { return slices.Compare(x, y) })
		return rows
	}
	return slices.EqualFunc(sorted(a), sorted(b), func(x, y data.Row) bool { return slices.Equal(x, y) })
}

// TestDegradedCycleDeterministic re-runs the same faulted configuration and
// expects an identical degradation report — the injector is a pure function
// of (seed, site), so the ladder must walk the same path every time.
func TestDegradedCycleDeterministic(t *testing.T) {
	g, cat, db := skewedRetail(t)
	report := func() *Degradation {
		cfg := DefaultConfig()
		cfg.Faults = faults.New(23, 0.5, 0, faults.Tap)
		cy, err := Run(g, cat, db, cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if cy.Degradation == nil {
			t.Fatal("expected a degraded cycle")
		}
		return cy.Degradation
	}
	a, b := report(), report()
	if a.Mode != b.Mode || len(a.Failed) != len(b.Failed) || a.Reruns != b.Reruns || a.PaygRuns != b.PaygRuns {
		t.Fatalf("degradation not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Failed {
		if a.Failed[i].Stat.Key() != b.Failed[i].Stat.Key() {
			t.Fatalf("failed statistic order differs at %d", i)
		}
	}
}

// TestTransientFaultsRecoverCleanly: transient faults retry inside the
// engine; the cycle itself must come out clean (no degradation) with the
// same selection-observed statistics as a fault-free run.
func TestTransientFaultsRecoverCleanly(t *testing.T) {
	g, cat, db := skewedRetail(t)
	clean, err := Run(g, cat, db, DefaultConfig())
	if err != nil {
		t.Fatalf("clean Run: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Faults = faults.New(1, 1, 1, 0) // every site faults once, retries clear
	cy, err := Run(g, cat, db, cfg)
	if err != nil {
		t.Fatalf("transient-faulted Run: %v", err)
	}
	if cy.Degraded() {
		t.Fatalf("transient faults degraded the cycle: %v", cy.Degradation)
	}
	if cy.Observed.Retries == 0 {
		t.Fatal("no retries recorded despite rate-1 transient faults")
	}
	for _, v := range clean.Observed.Observed.Values() {
		got, ok := cy.Observed.Observed.Get(v.Stat)
		if !ok {
			t.Fatalf("statistic %v missing after transient recovery", v.Stat.Key())
		}
		if v.Hist == nil && got.Scalar != v.Scalar {
			t.Fatalf("statistic %v: %d after recovery, want %d", v.Stat.Key(), got.Scalar, v.Scalar)
		}
	}
}

// TestRunCtxCancelled: a cancelled context aborts the cycle with the
// context's error and a partial cycle for flushing.
func TestRunCtxCancelled(t *testing.T) {
	g, cat, db := skewedRetail(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cy, err := RunCtx(ctx, g, cat, db, DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cy == nil {
		t.Fatal("no partial cycle returned on cancellation")
	}
}

// TestRunCtxDeadline: an already-expired deadline surfaces as
// context.DeadlineExceeded.
func TestRunCtxDeadline(t *testing.T) {
	g, cat, db := skewedRetail(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunCtx(ctx, g, cat, db, DefaultConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}
