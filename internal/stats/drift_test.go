package stats

import (
	"sync"
	"testing"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestValueDriftMixedRepresentation verifies that a statistic whose
// representation changed between runs (scalar one run, histogram the
// other) counts as full drift in both orderings, instead of silently
// comparing the histogram value's zero Scalar.
func TestValueDriftMixedRepresentation(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	h := NewHistogram(a)
	h.Inc([]int64{1}, 50)
	scalar := &Value{Scalar: 50}
	hist := &Value{Hist: h}

	if got := valueDrift(scalar, hist); got != 1 {
		t.Fatalf("valueDrift(scalar, hist) = %v, want 1 (full drift)", got)
	}
	if got := valueDrift(hist, scalar); got != 1 {
		t.Fatalf("valueDrift(hist, scalar) = %v, want 1 (full drift)", got)
	}
	// Same representation still compares by value, not by the guard.
	if got := valueDrift(scalar, &Value{Scalar: 50}); got != 0 {
		t.Fatalf("valueDrift(scalar, scalar) = %v, want 0", got)
	}
}

// TestMeasureDriftConcurrent is the -race regression for MeasureDrift
// reading store maps without locks: it measures drift in both argument
// orders (exercising the fixed-order lockPair against deadlock) while
// writers are still feeding both stores, the way a drift check against a
// mid-observation instrumented run would. Merge runs both directions too,
// as it shares the same two-store lock ordering.
func TestMeasureDriftConcurrent(t *testing.T) {
	a := NewStore()
	b := NewStore()
	var wg sync.WaitGroup

	// Writers: feed both stores throughout.
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := NewCard(BlockSE(g, expr.NewSet(i%8)))
				a.Put(&Value{Stat: s, Scalar: int64(i)})
				b.Put(&Value{Stat: s, Scalar: int64(i + 1)})
			}
		}()
	}
	// Readers: drift in both orders (and degenerate same-store).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				MeasureDrift(a, b)
				MeasureDrift(b, a)
				MeasureDrift(a, a)
			}
		}()
	}
	// Mergers: two-store writes in both orders, same lock-ordering path.
	wg.Add(2)
	go func() {
		defer wg.Done()
		other := NewStore()
		other.Put(&Value{Stat: NewCard(BlockSE(99, expr.NewSet(0))), Scalar: 1})
		for i := 0; i < 100; i++ {
			a.Merge(other)
		}
	}()
	go func() {
		defer wg.Done()
		other := NewStore()
		other.Put(&Value{Stat: NewCard(BlockSE(98, expr.NewSet(0))), Scalar: 1})
		for i := 0; i < 100; i++ {
			b.Merge(other)
		}
	}()
	// A lock-ordering bug deadlocks here; an unlocked map read fails the
	// -race run.
	wg.Wait()

	d := MeasureDrift(a, b)
	if d.Shared == 0 {
		t.Fatal("stores share keys by construction; drift saw none")
	}
}
