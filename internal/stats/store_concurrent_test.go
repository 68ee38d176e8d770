package stats

import (
	"sync"
	"testing"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestStoreConcurrentPutOnce exercises the store from many goroutines the
// way parallel block execution does: racing Put on the same keys, reads,
// and merges. Run under -race this doubles as the data-race check; the
// assertions verify keep-first semantics.
func TestStoreConcurrentPutOnce(t *testing.T) {
	st := NewStore()
	a := workflow.Attr{Rel: "R", Col: "k"}
	scalarStat := NewCard(BlockSE(0, expr.NewSet(0)))
	histStat := NewHist(BlockSE(1, expr.NewSet(0)), a)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Put(&Value{Stat: scalarStat, Scalar: int64(g*1000 + i)})
				h := NewHistogram(a)
				h.Inc([]int64{int64(g)}, 1)
				st.Put(&Value{Stat: histStat, Hist: h})
				st.Put(&Value{Stat: NewCard(BlockSE(g, expr.NewSet(1))), Scalar: int64(i)})
				st.Has(scalarStat)
				st.Len()
				if _, ok := st.Get(scalarStat); !ok {
					t.Error("Get: the scalar a writer put is absent")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Keep-first: whichever write won, the value must be one of the
	// written ones and stable now.
	v1, ok := st.Get(scalarStat)
	if !ok {
		t.Fatal("Get: scalar absent")
	}
	if v2, _ := st.Get(scalarStat); v1 != v2 {
		t.Fatalf("scalar unstable after writers finished: %d vs %d", v1.Scalar, v2.Scalar)
	}
	h, ok := st.Get(histStat)
	if !ok {
		t.Fatal("Get: hist absent")
	}
	if h.Hist.Total() != 1 {
		t.Fatalf("hist total = %d, want 1 (exactly one Put must win)", h.Hist.Total())
	}
}

// TestStoreConcurrentMerge races Merge against writers on disjoint stores.
func TestStoreConcurrentMerge(t *testing.T) {
	dst := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := NewStore()
			for i := 0; i < 50; i++ {
				src.Put(&Value{Stat: NewCard(BlockSE(g, expr.NewSet(i%3))), Scalar: int64(i)})
			}
			dst.Merge(src)
		}()
	}
	wg.Wait()
	if dst.Len() == 0 {
		t.Fatal("merged store is empty")
	}
	// Self-merge must not deadlock or corrupt.
	before := dst.Len()
	dst.Merge(dst)
	if dst.Len() != before {
		t.Fatalf("self-merge changed size: %d vs %d", dst.Len(), before)
	}
}
