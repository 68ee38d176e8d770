package stats

import (
	"errors"
	"testing"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestStatKeyIdentity(t *testing.T) {
	a := workflow.Attr{Rel: "T1", Col: "a"}
	b := workflow.Attr{Rel: "T1", Col: "b"}
	s1 := NewHist(BlockSE(0, expr.NewSet(0, 1)), a, b)
	s2 := NewHist(BlockSE(0, expr.NewSet(0, 1)), b, a) // order must not matter
	if s1.Key() != s2.Key() {
		t.Fatalf("keys differ for same stat: %v vs %v", s1.Key(), s2.Key())
	}
	s3 := NewHist(BlockSE(0, expr.NewSet(0)), a, b)
	if s1.Key() == s3.Key() {
		t.Fatal("different SEs must have different keys")
	}
	s4 := NewCard(BlockSE(0, expr.NewSet(0, 1)))
	if s1.Key() == s4.Key() {
		t.Fatal("different kinds must have different keys")
	}
	s5 := NewHist(BlockRejectSE(0, expr.NewSet(0, 1), 0, 2), a, b)
	if s1.Key() == s5.Key() {
		t.Fatal("reject targets must have different keys")
	}
}

func TestTargetLabel(t *testing.T) {
	blk := &workflow.Block{Inputs: []workflow.BlockInput{
		{Name: "T1"}, {Name: "T2"}, {Name: "T3"},
	}}
	if got := BlockSE(0, expr.NewSet(0, 2)).Label(blk); got != "T1⋈T3" {
		t.Fatalf("Label = %q", got)
	}
	rej := BlockRejectSE(0, expr.NewSet(0, 1), 0, 3)
	if got := rej.Label(blk); got != "!T1(e3)⋈T2" {
		t.Fatalf("reject label = %q", got)
	}
	if !rej.IsReject() || BlockSE(0, expr.NewSet(0)).IsReject() {
		t.Fatal("IsReject broken")
	}
}

func TestStatLabel(t *testing.T) {
	blk := &workflow.Block{Inputs: []workflow.BlockInput{{Name: "Orders"}, {Name: "Customer"}}}
	a := workflow.Attr{Rel: "Orders", Col: "cid"}
	if got := NewCard(BlockSE(0, expr.NewSet(0, 1))).Label(blk); got != "|Orders⋈Customer|" {
		t.Fatalf("card label = %q", got)
	}
	if got := NewHist(BlockSE(0, expr.NewSet(0)), a).Label(blk); got != "H^{Orders.cid}_{Orders}" {
		t.Fatalf("hist label = %q", got)
	}
	if got := NewDistinct(BlockSE(0, expr.NewSet(0)), a).Label(blk); got != "|Orders.cid_{Orders}|" {
		t.Fatalf("distinct label = %q", got)
	}
}

func TestCSSLabelAndKeys(t *testing.T) {
	blk := &workflow.Block{Inputs: []workflow.BlockInput{{Name: "A"}, {Name: "B"}}}
	a := workflow.Attr{Rel: "A", Col: "x"}
	css := CSS{Rule: "J1", Inputs: []Stat{
		NewHist(BlockSE(0, expr.NewSet(0)), a),
		NewHist(BlockSE(0, expr.NewSet(1)), a),
	}}
	if got := css.Label(blk); got != "J1{H^{A.x}_{A}, H^{A.x}_{B}}" {
		t.Fatalf("CSS label = %q", got)
	}
	if css.Inputs[0].Key() == css.Inputs[1].Key() {
		t.Fatal("the inputs share a key")
	}
}

func TestStoreScalarHist(t *testing.T) {
	st := NewStore()
	card := NewCard(BlockSE(0, expr.NewSet(0)))
	st.Put(&Value{Stat: card, Scalar: 42})
	if v, ok := st.Get(card); !ok || v.Scalar != 42 {
		t.Fatalf("Get(card) = %+v, %v", v, ok)
	}
	a := workflow.Attr{Rel: "T", Col: "a"}
	hs := NewHist(BlockSE(0, expr.NewSet(0)), a)
	h := NewHistogram(a)
	h.Add(1)
	st.Put(&Value{Stat: hs, Hist: h})
	if v, ok := st.Get(hs); !ok || v.Hist.Total() != 1 {
		t.Fatalf("Get(hist) = %+v, %v", v, ok)
	}
	if !st.Has(card) || !st.Has(hs) {
		t.Fatal("Has broken")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if _, ok := st.Get(NewCard(BlockSE(0, expr.NewSet(5)))); ok {
		t.Fatal("Get of missing stat: want absent")
	}
	// Memory: one scalar + one bucket = 2 units.
	if got := st.MemoryUnits(); got != 2 {
		t.Fatalf("MemoryUnits = %d, want 2", got)
	}
}

func TestStoreValuesDeterministic(t *testing.T) {
	st := NewStore()
	for i := 5; i >= 0; i-- {
		st.Put(&Value{Stat: NewCard(BlockSE(0, expr.NewSet(i))), Scalar: int64(i)})
	}
	vals := st.Values()
	for i := 1; i < len(vals); i++ {
		if !keyLess(vals[i-1].Stat.Key(), vals[i].Stat.Key()) {
			t.Fatal("Values not sorted")
		}
	}
}

func TestStorePutKindErrors(t *testing.T) {
	st := NewStore()
	a := workflow.Attr{Rel: "T", Col: "a"}
	var ke *kindError
	if err := st.Put(&Value{Stat: NewHist(BlockSE(0, expr.NewSet(0)), a), Scalar: 1}); !errors.As(err, &ke) {
		t.Errorf("Put(scalar on hist stat) = %v, want *kindError", err)
	}
	if err := st.Put(&Value{Stat: NewCard(BlockSE(0, expr.NewSet(0))), Hist: NewHistogram(a)}); !errors.As(err, &ke) {
		t.Errorf("Put(hist on card stat) = %v, want *kindError", err)
	}
	if err := st.Put(&Value{Stat: Stat{Kind: Hist + 1}}); !errors.As(err, &ke) || ke.Error() == "" {
		t.Errorf("Put(unknown kind) = %v, want *kindError", err)
	}
	// A rejected put must leave the store untouched.
	if st.Len() != 0 {
		t.Errorf("store holds %d values after rejected puts", st.Len())
	}
}

// TestStorePutWriteOnce: for every shape, a second Put keeps the first
// value; a value that fills two fields, or the wrong one, is a *kindError
// and leaves the store as it was.
func TestStorePutWriteOnce(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	tgt := BlockSE(0, expr.NewSet(0))
	h1, h2 := NewHistogram(a), NewHistogram(a)
	h1.Add(1)
	h2.Add(2)
	for _, tc := range []struct {
		name          string
		first, second *Value
		// wrong fills another shape's field; double fills two fields.
		wrong, double *Value
	}{
		{"scalar", &Value{Stat: NewCard(tgt), Scalar: 1}, &Value{Stat: NewCard(tgt), Scalar: 2},
			&Value{Stat: NewCard(tgt), Hist: h1}, &Value{Stat: NewCard(tgt), Hist: h2, Scalar: 1}},
		{"hist", &Value{Stat: NewHist(tgt, a), Hist: h1}, &Value{Stat: NewHist(tgt, a), Hist: h2},
			&Value{Stat: NewHist(tgt, a), Scalar: 1}, &Value{Stat: NewHist(tgt, a), Hist: h2, Scalar: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore()
			var ke *kindError
			for _, bad := range []*Value{tc.wrong, tc.double} {
				if err := st.Put(bad); !errors.As(err, &ke) {
					t.Fatalf("Put(%+v) = %v, want *kindError", bad, err)
				}
				if st.Len() != 0 {
					t.Fatalf("a rejected put stored a value")
				}
			}
			for _, v := range []*Value{tc.first, tc.second} {
				if err := st.Put(v); err != nil {
					t.Fatal(err)
				}
			}
			got, ok := st.Get(tc.first.Stat)
			if !ok || got != tc.first || st.Len() != 1 {
				t.Fatalf("Get = %p, %v (len %d); want the first value %p", got, ok, st.Len(), tc.first)
			}
			for _, bad := range []*Value{tc.wrong, tc.double} {
				if err := st.Put(bad); !errors.As(err, &ke) {
					t.Fatalf("Put(%+v) over a stored value = %v, want *kindError", bad, err)
				}
			}
			if got, _ := st.Get(tc.first.Stat); got != tc.first || st.Len() != 1 {
				t.Fatal("a rejected put changed the store")
			}
		})
	}
}
