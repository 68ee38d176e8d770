package engine

import (
	"slices"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// tinyDB builds a deterministic three-table database small enough to verify
// by hand.
func tinyDB() (DB, *workflow.Catalog) {
	orders := &data.Table{Rel: "Orders", Attrs: []workflow.Attr{
		{Rel: "Orders", Col: "cid"}, {Rel: "Orders", Col: "oid"}, {Rel: "Orders", Col: "pid"},
	}}
	// (cid, oid, pid)
	orders.Rows = []data.Row{
		{1, 1, 10}, {1, 2, 10}, {2, 3, 20}, {2, 4, 30}, {3, 5, 99},
	}
	product := &data.Table{Rel: "Product", Attrs: []workflow.Attr{
		{Rel: "Product", Col: "pid"}, {Rel: "Product", Col: "price"},
	}}
	product.Rows = []data.Row{{10, 100}, {20, 200}, {30, 300}}
	customer := &data.Table{Rel: "Customer", Attrs: []workflow.Attr{
		{Rel: "Customer", Col: "cid"}, {Rel: "Customer", Col: "region"},
	}}
	customer.Rows = []data.Row{{1, 1}, {2, 2}}
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "Orders", Card: 5, Columns: []workflow.Column{
			{Name: "cid", Domain: 5}, {Name: "oid", Domain: 10}, {Name: "pid", Domain: 100},
		}},
		{Name: "Product", Card: 3, Columns: []workflow.Column{
			{Name: "pid", Domain: 100}, {Name: "price", Domain: 1000},
		}},
		{Name: "Customer", Card: 2, Columns: []workflow.Column{
			{Name: "cid", Domain: 5}, {Name: "region", Domain: 10},
		}},
	}}
	return DB{"Orders": orders, "Product": product, "Customer": customer}, cat
}

// view adapts an engine result to the shared comparison helpers.
func view(r *Result) *wftest.Result {
	return &wftest.Result{Sinks: r.Sinks, Materialized: r.Materialized, Rows: r.Rows, Observed: r.Observed}
}

// equalResults compares every externally visible part of two engine
// results: sinks, materialized side tables, observed statistics and the
// work metric. Row order within tables is not part of the contract.
func equalResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	wftest.NewGolden(view(want)).Diff(t, label, view(got))
}

func retailGraph() *workflow.Graph {
	b := workflow.NewBuilder("retail")
	o := b.Source("Orders")
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	j2 := b.Join(j1, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "dw")
	return b.Graph()
}

func TestRunRetailInitialPlan(t *testing.T) {
	db, cat := tinyDB()
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	e := New(an, db, nil)
	res, err := e.RunPlans(nil, nil, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Orders⋈Product: orders 1-4 match (pid 10,10,20,30), order 5 (99)
	// doesn't: 4 rows. Then ⋈Customer: cids 1,1,2,2 all match: 4 rows.
	sink := res.Sinks["dw"]
	if sink == nil {
		t.Fatal("sink dw missing")
	}
	if sink.Card() != 4 {
		t.Fatalf("sink cardinality = %d, want 4", sink.Card())
	}
	// Full schema: 3 + 2 + 2 attrs.
	if len(sink.Attrs) != 7 {
		t.Fatalf("sink schema width = %d, want 7", len(sink.Attrs))
	}
}

func TestRunAlternativePlansSameResult(t *testing.T) {
	db, cat := tinyDB()
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	e := New(an, db, nil)
	initial, err := e.RunPlans(nil, nil, nil)
	if err != nil {
		t.Fatalf("Run(initial): %v", err)
	}
	// Alternative: (Orders⋈Customer)⋈Product.
	blk := an.Blocks[0]
	var oIdx, pIdx, cIdx, eOP, eOC int
	for i, in := range blk.Inputs {
		switch in.SourceRel {
		case "Orders":
			oIdx = i
		case "Product":
			pIdx = i
		case "Customer":
			cIdx = i
		}
	}
	for j, e := range blk.Joins {
		if e.LeftAttr.Col == "pid" || e.RightAttr.Col == "pid" {
			eOP = j
		} else {
			eOC = j
		}
	}
	alt := &workflow.JoinTree{
		Leaf: -1, Join: eOP,
		Left: &workflow.JoinTree{
			Leaf: -1, Join: eOC,
			Left:  &workflow.JoinTree{Leaf: oIdx, Join: -1},
			Right: &workflow.JoinTree{Leaf: cIdx, Join: -1},
		},
		Right: &workflow.JoinTree{Leaf: pIdx, Join: -1},
	}
	reordered, err := e.RunPlans(map[int]*workflow.JoinTree{0: alt}, nil, nil)
	if err != nil {
		t.Fatalf("Run(alt): %v", err)
	}
	if got, want := reordered.Sinks["dw"].Card(), initial.Sinks["dw"].Card(); got != want {
		t.Fatalf("reordered plan output %d rows, initial %d", got, want)
	}
}

func TestRunChainOps(t *testing.T) {
	db, cat := tinyDB()
	b := workflow.NewBuilder("chain")
	o := b.Source("Orders")
	f := b.Select(o, workflow.Predicate{Attr: workflow.Attr{Rel: "Orders", Col: "pid"}, Op: workflow.CmpLt, Const: 50})
	x := b.Transform(f, "bucket10", workflow.Attr{Rel: "X", Col: "b"}, workflow.Attr{Rel: "Orders", Col: "pid"})
	p := b.Project(x, workflow.Attr{Rel: "Orders", Col: "oid"}, workflow.Attr{Rel: "X", Col: "b"})
	b.Sink(p, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := New(an, db, nil).RunPlans(nil, nil, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := res.Sinks["out"]
	if out.Card() != 4 { // order with pid 99 filtered
		t.Fatalf("card = %d, want 4", out.Card())
	}
	if len(out.Attrs) != 2 {
		t.Fatalf("schema = %v, want 2 attrs", out.Attrs)
	}
	// bucket10(pid): 10→1, 20→1, 30→1 per function (v%10+1 = 1 for all).
	for _, r := range out.Rows {
		if r[out.Col(workflow.Attr{Rel: "X", Col: "b"})] != 1 {
			t.Fatalf("bucket value wrong: %v", r)
		}
	}
}

func TestRunGroupBy(t *testing.T) {
	db, cat := tinyDB()
	b := workflow.NewBuilder("gby")
	o := b.Source("Orders")
	g := b.GroupBy(o, workflow.Attr{Rel: "Orders", Col: "cid"})
	b.Sink(g, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := New(an, db, nil).RunPlans(nil, nil, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Sinks["out"].Card() != 3 { // cids 1,2,3
		t.Fatalf("groups = %d, want 3", res.Sinks["out"].Card())
	}
}

func TestRunRejectLinkMaterialized(t *testing.T) {
	db, cat := tinyDB()
	b := workflow.NewBuilder("rej")
	o := b.Source("Orders")
	p := b.Source("Product")
	j := b.RejectJoin(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	b.Sink(j, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := New(an, db, nil).RunPlans(nil, nil, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref := reference(t, an, db, nil, nil)
	for name, run := range map[string]*wftest.Result{"batch": view(res), "reference": ref} {
		if run.Sinks["out"].Card() != 4 {
			t.Fatalf("%s: joined = %d, want 4", name, run.Sinks["out"].Card())
		}
		var rejects *data.Table
		for rel, tbl := range run.Materialized {
			if strings.HasSuffix(rel, ".reject") {
				rejects = tbl
			}
		}
		if rejects == nil {
			t.Fatalf("%s: reject link not materialized", name)
		}
		// The one rejected order is (cid=3, oid=5, pid=99).
		if rejects.Card() != 1 || !slices.Equal(rejects.Rows[0], data.Row{3, 5, 99}) {
			t.Fatalf("%s: rejects = %v, want the pid=99 order", name, rejects.Rows)
		}
	}
}

func TestRunMissingRelation(t *testing.T) {
	_, cat := tinyDB()
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	e := New(an, DB{}, nil)
	if _, err := e.RunPlans(nil, nil, nil); err == nil {
		t.Fatal("missing relation: want error")
	}
}

func TestRunUnknownUDF(t *testing.T) {
	db, cat := tinyDB()
	b := workflow.NewBuilder("badudf")
	o := b.Source("Orders")
	x := b.Transform(o, "no-such-fn", workflow.Attr{Rel: "X", Col: "y"}, workflow.Attr{Rel: "Orders", Col: "pid"})
	b.Sink(x, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if _, err := New(an, db, nil).RunPlans(nil, nil, nil); err == nil {
		t.Fatal("unknown UDF: want error")
	}
}
