package data

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := TableSpec{Rel: "T", Card: 1000, Columns: []ColumnSpec{
		{Name: "id", Serial: true},
		{Name: "k", Domain: 50, Skew: 1.5},
		{Name: "u", Domain: 100},
	}}
	a := Generate(spec, 7)
	b := Generate(spec, 7)
	if len(a.Rows) != 1000 || len(b.Rows) != 1000 {
		t.Fatalf("cardinality wrong: %d / %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("row %d col %d differs across same-seed runs", i, j)
			}
		}
	}
	c := Generate(spec, 8)
	same := true
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != c.Rows[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSerialColumn(t *testing.T) {
	spec := TableSpec{Rel: "T", Card: 100, Columns: []ColumnSpec{{Name: "id", Serial: true}}}
	tab := Generate(spec, 1)
	for i, r := range tab.Rows {
		if r[0] != int64(i+1) {
			t.Fatalf("serial row %d = %d", i, r[0])
		}
	}
	d, err := tab.distinctOf(workflow.Attr{Rel: "T", Col: "id"})
	if err != nil || d != 100 {
		t.Fatalf("DistinctOf(serial) = %d, %v", d, err)
	}
}

func TestZipfSkew(t *testing.T) {
	// High skew: the most frequent value should dominate; uniform should
	// not.
	rng := rand.New(rand.NewSource(3))
	z := newZipf(rng, 2.0, 1000)
	counts := map[int64]int{}
	for i := 0; i < 20000; i++ {
		v := z.next()
		if v < 1 || v > 1000 {
			t.Fatalf("Zipf value %d out of range", v)
		}
		counts[v]++
	}
	if counts[1] < 8000 {
		t.Fatalf("skew 2.0: top value frequency %d, expected heavy head", counts[1])
	}
}

func TestZipfInvalidSkewClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := newZipf(rng, 0.5, 10) // must not panic: clamped above 1
	for i := 0; i < 100; i++ {
		if v := z.next(); v < 1 || v > 10 {
			t.Fatalf("value %d out of range", v)
		}
	}
}

func TestDomainRespected(t *testing.T) {
	f := func(seed int64) bool {
		spec := TableSpec{Rel: "T", Card: 200, Columns: []ColumnSpec{
			{Name: "k", Domain: 13, Skew: 1.3},
			{Name: "u", Domain: 7},
		}}
		tab := Generate(spec, seed)
		for _, r := range tab.Rows {
			if r[0] < 1 || r[0] > 13 || r[1] < 1 || r[1] > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogEntry(t *testing.T) {
	spec := TableSpec{Rel: "T", Card: 500, Columns: []ColumnSpec{
		{Name: "id", Serial: true},
		{Name: "k", Domain: 20, Skew: 1.8},
	}}
	tab := Generate(spec, 11)
	rel := CatalogEntry(tab, spec)
	if rel.Card != 500 {
		t.Fatalf("Card = %d", rel.Card)
	}
	if rel.Columns[0].Domain != 500 { // serial domain = card
		t.Fatalf("serial domain = %d", rel.Columns[0].Domain)
	}
	if rel.Columns[1].Domain != 20 {
		t.Fatalf("k domain = %d", rel.Columns[1].Domain)
	}
	if rel.Columns[1].Distinct < 1 || rel.Columns[1].Distinct > 20 {
		t.Fatalf("k distinct = %d", rel.Columns[1].Distinct)
	}
}

func TestCharacterize(t *testing.T) {
	t1 := Generate(TableSpec{Rel: "A", Card: 100, Columns: []ColumnSpec{{Name: "k", Domain: 10, Skew: 1.5}}}, 1)
	t2 := Generate(TableSpec{Rel: "B", Card: 300, Columns: []ColumnSpec{{Name: "k", Domain: 50, Skew: 1.5}}}, 2)
	ch := Characterize([]*Table{t1, t2})
	if ch.CardMax != 300 || ch.CardMin != 100 {
		t.Fatalf("card summary wrong: %+v", ch)
	}
	if ch.CardMean != 200 {
		t.Fatalf("card mean = %d, want 200", ch.CardMean)
	}
	if ch.UVMax < ch.UVMin {
		t.Fatalf("UV summary wrong: %+v", ch)
	}
	empty := Characterize(nil)
	if empty.CardMax != 0 {
		t.Fatalf("empty characterize should be zero: %+v", empty)
	}
}

func TestTableCol(t *testing.T) {
	tab := Generate(TableSpec{Rel: "T", Card: 1, Columns: []ColumnSpec{{Name: "a", Domain: 2}}}, 1)
	if tab.Col(workflow.Attr{Rel: "T", Col: "a"}) != 0 {
		t.Fatal("Col lookup failed")
	}
	if tab.Col(workflow.Attr{Rel: "T", Col: "zz"}) != -1 {
		t.Fatal("Col of missing attr should be -1")
	}
	if _, err := tab.distinctOf(workflow.Attr{Rel: "T", Col: "zz"}); err == nil {
		t.Fatal("DistinctOf missing attr: want error")
	}
}
