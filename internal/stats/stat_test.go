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
	st.PutScalar(card, 42)
	v, err := st.Scalar(card)
	if err != nil || v != 42 {
		t.Fatalf("Scalar = %d, %v", v, err)
	}
	a := workflow.Attr{Rel: "T", Col: "a"}
	hs := NewHist(BlockSE(0, expr.NewSet(0)), a)
	h := NewHistogram(a)
	h.Add(1)
	st.putHist(hs, h)
	got, err := st.Hist(hs)
	if err != nil || got.Total() != 1 {
		t.Fatalf("Hist: %v, %v", got, err)
	}
	if !st.Has(card) || !st.Has(hs) {
		t.Fatal("Has broken")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if _, err := st.Scalar(NewCard(BlockSE(0, expr.NewSet(5)))); err == nil {
		t.Fatal("Scalar of missing stat: want error")
	}
	if _, err := st.Hist(NewHist(BlockSE(0, expr.NewSet(5)), a)); err == nil {
		t.Fatal("Hist of missing stat: want error")
	}
	if _, err := st.Scalar(hs); err == nil {
		t.Fatal("Scalar of histogram stat: want error")
	}
	// Memory: one scalar + one bucket = 2 units.
	if got := st.MemoryUnits(); got != 2 {
		t.Fatalf("MemoryUnits = %d, want 2", got)
	}
}

func TestStoreValuesDeterministic(t *testing.T) {
	st := NewStore()
	for i := 5; i >= 0; i-- {
		st.PutScalar(NewCard(BlockSE(0, expr.NewSet(i))), int64(i))
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
	if err := st.PutScalar(NewHist(BlockSE(0, expr.NewSet(0)), a), 1); !errors.As(err, &ke) || ke.Op != "PutScalar" {
		t.Errorf("PutScalar(hist stat) = %v, want *KindError", err)
	}
	if err := st.putHist(NewCard(BlockSE(0, expr.NewSet(0))), NewHistogram(a)); !errors.As(err, &ke) || ke.Op != "PutHist" {
		t.Errorf("PutHist(card stat) = %v, want *KindError", err)
	}
	if err := st.PutScalarOnce(NewHist(BlockSE(0, expr.NewSet(0)), a), 1); !errors.As(err, &ke) || ke.Op != "PutScalarOnce" {
		t.Errorf("PutScalarOnce(hist stat) = %v, want *KindError", err)
	}
	if err := st.PutHistOnce(NewCard(BlockSE(0, expr.NewSet(0))), NewHistogram(a)); !errors.As(err, &ke) || ke.Op != "PutHistOnce" {
		t.Errorf("PutHistOnce(card stat) = %v, want *KindError", err)
	}
	// A rejected put must leave the store untouched.
	if st.Len() != 0 {
		t.Errorf("store holds %d values after rejected puts", st.Len())
	}
}
