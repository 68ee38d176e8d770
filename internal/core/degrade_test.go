package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/stats"
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
			if deg.Mode != "alternate-css" && deg.Mode != "sketch" && deg.Mode != "payg" {
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

// TestSketchRungReached scans injector seeds until the ladder completes on
// the sketch rung: every permanently failed statistic recovered through its
// bounded-memory approximate sibling (which tap faults cannot touch), with
// no pay-as-you-go runs and no fallback blocks. The rate is chosen low
// enough that some seed fails only statistics with sketch variants.
func TestSketchRungReached(t *testing.T) {
	g, cat, db := skewedRetail(t)
	for seed := uint64(1); seed <= 64; seed++ {
		cfg := DefaultConfig()
		cfg.Faults = faults.New(seed, 0.3, 0, faults.Tap)
		cy, err := Run(g, cat, db, cfg)
		if err != nil {
			t.Fatalf("seed %d: Run aborted: %v", seed, err)
		}
		deg := cy.Degradation
		if deg == nil || deg.Mode != "sketch" {
			continue
		}
		if deg.SketchRuns != 1 {
			t.Fatalf("seed %d: sketch mode with %d sketch runs", seed, deg.SketchRuns)
		}
		if deg.PaygRuns != 0 {
			t.Fatalf("seed %d: sketch mode ran payg %d time(s)", seed, deg.PaygRuns)
		}
		// Every failure must actually be covered by an observed sketch.
		store := cy.Observed.Observed
		for _, f := range deg.Failed {
			v, ok := stats.ApproxVariant(f.Stat)
			if !ok || !store.Has(v) {
				t.Fatalf("seed %d: failed statistic %v not covered by a sketch", seed, f.Stat.Key())
			}
		}
		if n := len(deg.FallbackBlocks); n != 0 {
			t.Fatalf("seed %d: sketch rung left %d fallback blocks", seed, n)
		}
		t.Logf("seed %d: sketch rung recovered %d failed statistic(s)", seed, len(deg.Failed))
		return
	}
	t.Fatal("no injector seed in 1..64 completed via the sketch rung")
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
