package wftest

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func table(rel string, cols []string, rows ...data.Row) *data.Table {
	t := &data.Table{Rel: rel, Rows: rows}
	for _, c := range cols {
		t.Attrs = append(t.Attrs, workflow.Attr{Rel: rel, Col: c})
	}
	return t
}

func TestHashJoinRejects(t *testing.T) {
	left := table("L", []string{"k"}, data.Row{1}, data.Row{2}, data.Row{3})
	right := table("R", []string{"k"}, data.Row{2}, data.Row{2}, data.Row{4})
	j, lm, rm := hashJoin(left, right, 0, 0)
	if j.Card() != 2 { // key 2 matches twice
		t.Fatalf("join = %d rows, want 2", j.Card())
	}
	if lm.Card() != 2 { // 1 and 3
		t.Fatalf("left misses = %d, want 2", lm.Card())
	}
	if rm.Card() != 1 || rm.Rows[0][0] != 4 {
		t.Fatalf("right misses = %v, want the one row with key 4", rm.Rows)
	}
}

// TestEvaluateCountsByHand pins the reference's work metric and per-node
// row counts on a plan small enough to add up by hand: five orders, four
// of which pass the filter and all four of those find their product.
func TestEvaluateCountsByHand(t *testing.T) {
	db := DB{
		"Orders":  table("Orders", []string{"oid", "pid"}, data.Row{1, 10}, data.Row{2, 10}, data.Row{3, 20}, data.Row{4, 30}, data.Row{5, 99}),
		"Product": table("Product", []string{"pid", "price"}, data.Row{10, 100}, data.Row{20, 200}, data.Row{30, 300}),
	}
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "Orders", Card: 5, Columns: []workflow.Column{{Name: "oid", Domain: 10}, {Name: "pid", Domain: 100}}},
		{Name: "Product", Card: 3, Columns: []workflow.Column{{Name: "pid", Domain: 100}, {Name: "price", Domain: 1000}}},
	}}
	b := workflow.NewBuilder("byhand")
	o := b.Select(b.Source("Orders"), workflow.Predicate{Attr: workflow.Attr{Rel: "Orders", Col: "pid"}, Op: workflow.CmpLt, Const: 50})
	j := b.Join(o, b.Source("Product"), workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	b.Sink(j, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	plan, err := physical.Compile(an, physical.DB(db), physical.Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res, err := Evaluate(plan)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if got := res.Sinks["out"].Card(); got != 4 {
		t.Fatalf("sink = %d rows, want 4", got)
	}
	// scan Orders 5 + filter 4 + scan Product 3 + join 4.
	if res.Rows != 16 {
		t.Fatalf("work metric = %d, want 16", res.Rows)
	}
	// Rows in → rows out per node; a scan reads what it emits.
	want := map[string][2]int64{
		"scan Orders": {5, 5}, "scan Product": {3, 3}, "filter": {5, 4}, "hashjoin": {7, 4},
	}
	if len(res.Metrics.Nodes) != len(want) {
		t.Fatalf("plan has %d nodes, want %d", len(res.Metrics.Nodes), len(want))
	}
	for _, n := range res.Metrics.Nodes {
		w, ok := want[n.Op]
		if n.Op == "scan" {
			w, ok = want[n.Label]
		}
		if !ok || n.RowsIn != w[0] || n.RowsOut != w[1] {
			t.Errorf("%s %q: rows %d→%d, want %d→%d", n.Op, n.Label, n.RowsIn, n.RowsOut, w[0], w[1])
		}
	}
	if res.Observed.Len() != 0 {
		t.Errorf("an uninstrumented plan observed %d statistics", res.Observed.Len())
	}
	// The brute-force SE oracle on the same fixture: the filtered orders,
	// the products, and their join.
	for se, want := range map[expr.Set]int64{expr.NewSet(0): 4, expr.NewSet(1): 3, expr.NewSet(0, 1): 4} {
		if got, err := SECard(an, db, nil, 0, se); err != nil || got != want {
			t.Errorf("SECard(%s) = %d, %v; want %d", se.Label(an.Blocks[0]), got, err, want)
		}
	}
}

// TestSECardMatchesReference holds the brute-force SE oracle against the
// reference evaluator over generated workflows: wherever the designed plan
// produces a sub-expression, the oracle's count equals the cardinality tap
// Evaluate observes there.
func TestSECardMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g, cat, db := Generate(seed, Options{})
		an, err := workflow.Analyze(g, cat)
		if err != nil {
			t.Fatalf("seed %d: Analyze: %v", seed, err)
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		var observe []stats.Stat
		for bi, sp := range res.Spaces {
			for _, se := range sp.SEs {
				observe = append(observe, stats.NewCard(stats.BlockSE(bi, se)))
			}
		}
		plan, err := physical.Compile(an, physical.DB(db), physical.Options{Res: res, Observe: observe})
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		ref, err := Evaluate(plan)
		if err != nil {
			t.Fatalf("seed %d: Evaluate: %v", seed, err)
		}
		for bi, sp := range res.Spaces {
			for _, se := range sp.SEs {
				tap := stats.NewCard(stats.BlockSE(bi, se))
				want, ok := ref.Observed.Get(tap)
				if !ok {
					if sp.Initial[se] {
						t.Errorf("seed %d block %d: the designed plan's SE %s went untapped", seed, bi, se.Label(an.Blocks[bi]))
					}
					continue
				}
				if got, err := SECard(an, db, ref.BlockOut, bi, se); err != nil || got != want.Scalar {
					t.Errorf("seed %d block %d SE %s: SECard = %d, %v; the reference observed %d",
						seed, bi, se.Label(an.Blocks[bi]), got, err, want.Scalar)
				}
			}
		}
	}
}

// failures counts Errorf calls instead of failing the test.
type failures struct {
	testing.TB
	n int
}

func (f *failures) Errorf(string, ...any) { f.n++ }
func (f *failures) Helper()               {}

// TestGoldenDiffIsExactMultiset pins the comparison every golden rests on:
// row order is free, but every cell and every duplicate counts.
func TestGoldenDiffIsExactMultiset(t *testing.T) {
	result := func(rows ...data.Row) *Result {
		return &Result{Sinks: map[string]*data.Table{"out": table("out", []string{"a", "b"}, rows...)}, Rows: 3}
	}
	golden := NewGolden(result(data.Row{2, -1}, data.Row{1, 5}, data.Row{1, 5}))
	for name, tc := range map[string]struct {
		got  *Result
		want int
	}{
		"permuted":        {result(data.Row{1, 5}, data.Row{2, -1}, data.Row{1, 5}), 0},
		"one cell off":    {result(data.Row{1, 5}, data.Row{2, -1}, data.Row{1, 6}), 1},
		"duplicate moved": {result(data.Row{1, 5}, data.Row{2, -1}, data.Row{2, -1}), 1},
		"row missing":     {result(data.Row{1, 5}, data.Row{2, -1}), 1},
		"table missing":   {&Result{Rows: 3}, 2}, // the count and the table
		"work metric":     {&Result{Sinks: result(data.Row{1, 5}, data.Row{1, 5}, data.Row{2, -1}).Sinks, Rows: 4}, 1},
	} {
		rec := &failures{TB: t}
		golden.Diff(rec, name, tc.got)
		if rec.n != tc.want {
			t.Errorf("%s: %d differences reported, want %d", name, rec.n, tc.want)
		}
	}
}
