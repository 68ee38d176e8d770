package selector

import (
	"errors"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/stats"
)

// TestReselectRoutesAroundFailure bans each statistic of the normal
// selection in turn and checks that the alternate selection still covers
// every required statistic without observing the banned one.
func TestReselectRoutesAroundFailure(t *testing.T) {
	g, cat := retail(t)
	u := buildUniverse(t, g, cat, css.DefaultOptions())
	sel, err := SelectUniverse(u, Options{Method: MethodExact})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	for _, s := range sel.Observe {
		failed := []stats.Stat{s}
		alt, err := Reselect(u, nil, failed, Options{Method: MethodExact})
		if err != nil {
			if errors.Is(err, ErrNoCover) {
				// Some statistics are genuinely unroutable (the only
				// covering CSS needs them); that is the payg rung.
				continue
			}
			t.Fatalf("Reselect without %v: %v", s.Key(), err)
		}
		observed := make([]bool, len(u.Stats))
		for _, a := range alt.Observe {
			if a.Key() == s.Key() {
				t.Fatalf("alternate selection still observes failed %v", s.Key())
			}
			observed[indexOf(t, u, a)] = true
		}
		if !u.Covered(observed) {
			t.Fatalf("alternate selection without %v does not cover S_C", s.Key())
		}
		if alt.Cost < sel.Cost {
			t.Fatalf("alternate selection cheaper (%.1f) than the unconstrained optimum (%.1f)", alt.Cost, sel.Cost)
		}
	}
}

// TestReselectHaveIsFree prices already-observed statistics at zero: with
// the whole original selection held, the alternate selection costs nothing
// new.
func TestReselectHaveIsFree(t *testing.T) {
	g, cat := retail(t)
	u := buildUniverse(t, g, cat, css.DefaultOptions())
	sel, err := SelectUniverse(u, Options{Method: MethodExact})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	alt, err := Reselect(u, sel.Observe, nil, Options{Method: MethodExact})
	if err != nil {
		t.Fatalf("Reselect with everything held: %v", err)
	}
	if alt.Cost != 0 {
		t.Fatalf("selection over held statistics should be free, cost %.1f", alt.Cost)
	}
}

// TestReselectAllFailed bans every observable statistic: nothing covers,
// the payg fallback is the only option left.
func TestReselectAllFailed(t *testing.T) {
	g, cat := retail(t)
	u := buildUniverse(t, g, cat, css.DefaultOptions())
	failed := make([]stats.Stat, 0, len(u.Stats))
	for i, s := range u.Stats {
		if u.Observable[i] {
			failed = append(failed, s)
		}
	}
	if _, err := Reselect(u, nil, failed, Options{Method: MethodExact}); !errors.Is(err, ErrNoCover) {
		t.Fatalf("want ErrNoCover with every observable banned, got %v", err)
	}
}

// TestReselectLeavesUniverseIntact verifies Reselect works on a clone: the
// original universe still selects identically afterwards.
func TestReselectLeavesUniverseIntact(t *testing.T) {
	g, cat := retail(t)
	u := buildUniverse(t, g, cat, css.DefaultOptions())
	before, err := SelectUniverse(u, Options{Method: MethodExact})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	_, _ = Reselect(u, nil, before.Observe[:1], Options{Method: MethodExact})
	after, err := SelectUniverse(u, Options{Method: MethodExact})
	if err != nil {
		t.Fatalf("Select after Reselect: %v", err)
	}
	if before.Cost != after.Cost || len(before.Observe) != len(after.Observe) {
		t.Fatalf("Reselect mutated the universe: cost %v→%v", before.Cost, after.Cost)
	}
}
