package costmodel

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func retailRes(t *testing.T) (*css.Result, *workflow.Catalog) {
	t.Helper()
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "Orders", Card: 10000, Columns: []workflow.Column{
			{Name: "oid", Domain: 10000}, {Name: "pid", Domain: 500}, {Name: "cid", Domain: 2000},
		}},
		{Name: "Product", Card: 500, Columns: []workflow.Column{
			{Name: "pid", Domain: 500}, {Name: "price", Domain: 1000},
		}},
		{Name: "Customer", Card: 2000, Columns: []workflow.Column{
			{Name: "cid", Domain: 2000}, {Name: "region", Domain: 50},
		}},
	}}
	b := workflow.NewBuilder("retail")
	o := b.Source("Orders")
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	j2 := b.Join(j1, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "dw")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return res, an.Cat
}

func inputOf(t *testing.T, res *css.Result, rel string) int {
	t.Helper()
	for i, in := range res.Analysis.Blocks[0].Inputs {
		if in.SourceRel == rel {
			return i
		}
	}
	t.Fatalf("input %s not found", rel)
	return -1
}

func TestMemoryUnits(t *testing.T) {
	res, cat := retailRes(t)
	c := NewMemoryCoster(res, cat)
	o := inputOf(t, res, "Orders")
	sp := res.Space(0)
	pid := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "pid"})
	cid := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "cid"})

	// Cardinality: one counter.
	m, err := c.memory(stats.NewCard(stats.BlockSE(0, expr.NewSet(o))))
	if err != nil || m != 1 {
		t.Fatalf("Memory(card) = %d, %v; want 1", m, err)
	}
	// Single-attribute histogram: the attribute domain (Section 5.4).
	m, err = c.memory(stats.NewHist(stats.BlockSE(0, expr.NewSet(o)), pid))
	if err != nil || m != 500 {
		t.Fatalf("Memory(H^pid) = %d, %v; want 500", m, err)
	}
	// Joint histogram: the product of domains.
	m, err = c.memory(stats.NewHist(stats.BlockSE(0, expr.NewSet(o)), pid, cid))
	if err != nil || m != 500*2000 {
		t.Fatalf("Memory(H^{pid,cid}) = %d, %v; want 1000000", m, err)
	}
	// Distinct: same as a histogram.
	m, err = c.memory(stats.NewDistinct(stats.BlockSE(0, expr.NewSet(o)), cid))
	if err != nil || m != 2000 {
		t.Fatalf("Memory(distinct cid) = %d, %v; want 2000", m, err)
	}
}

func TestMemoryFDReduction(t *testing.T) {
	res, cat := retailRes(t)
	c := NewMemoryCoster(res, cat)
	o := inputOf(t, res, "Orders")
	sp := res.Space(0)
	oid := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "oid"})
	cid := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "cid"})
	joint := stats.NewHist(stats.BlockSE(0, expr.NewSet(o)), oid, cid)
	m, err := c.memory(joint)
	if err != nil || m != 10000*2000 {
		t.Fatalf("Memory without FDs = %d, %v; want 20000000", m, err)
	}
	// Orders.oid functionally determines Orders.cid (each order has one
	// customer): the joint (oid, cid) histogram has at most |oid| buckets.
	cat.FDs = append(cat.FDs, workflow.FD{Rel: "Orders", Determines: []string{"oid"}, Dependent: "cid"})
	m, err = c.memory(joint)
	if err != nil || m != 10000 {
		t.Fatalf("FD-reduced Memory = %d, %v; want 10000 (|oid|)", m, err)
	}
}

func TestFreeSourceStats(t *testing.T) {
	res, cat := retailRes(t)
	c := NewMemoryCoster(res, cat)
	p := inputOf(t, res, "Product")
	o := inputOf(t, res, "Orders")
	pid := res.Space(0).ClassOf(workflow.Attr{Rel: "Orders", Col: "pid"})
	price := func(s stats.Stat) float64 {
		t.Helper()
		cost, _, err := c.Price(s)
		if err != nil {
			t.Fatalf("Price(%v): %v", s.Key(), err)
		}
		return cost
	}
	productHist := stats.NewHist(stats.BlockSE(0, expr.NewSet(p)), pid)
	if cost := price(productHist); cost != 500 {
		t.Fatalf("Product stat without source stats costs %v; want its memory 500", cost)
	}
	cat.Relation("Product").HasSourceStats = true
	if cost := price(productHist); cost != 0 {
		t.Fatalf("free source stat cost = %v; want 0", cost)
	}
	if cost := price(stats.NewHist(stats.BlockSE(0, expr.NewSet(o)), pid)); cost != 500 {
		t.Fatalf("Orders (no source stats) cost = %v; want 500", cost)
	}
	// Joins are never free.
	if cost := price(stats.NewCard(stats.BlockSE(0, expr.NewSet(o, p)))); cost != 1 {
		t.Fatalf("join stat cost = %v; want 1", cost)
	}
}

func TestMemorySaturatesInsteadOfOverflow(t *testing.T) {
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "A", Card: 10, Columns: []workflow.Column{
			{Name: "x", Domain: 1 << 40}, {Name: "y", Domain: 1 << 40}, {Name: "k", Domain: 10},
		}},
		{Name: "B", Card: 10, Columns: []workflow.Column{{Name: "k", Domain: 10}}},
	}}
	b := workflow.NewBuilder("big")
	a := b.Source("A")
	bb := b.Source("B")
	j := b.Join(a, bb, workflow.Attr{Rel: "A", Col: "k"}, workflow.Attr{Rel: "B", Col: "k"})
	b.Sink(j, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	c := NewMemoryCoster(res, an.Cat)
	x := workflow.Attr{Rel: "A", Col: "x"}
	y := workflow.Attr{Rel: "A", Col: "y"}
	m, err := c.memory(stats.NewHist(stats.BlockSE(0, expr.NewSet(0)), x, y))
	if err != nil {
		t.Fatalf("Memory: %v", err)
	}
	if m <= 0 {
		t.Fatalf("Memory overflowed to %d", m)
	}
}
