package engine

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// reference evaluates the instrumented initial plan with wftest's
// row-at-a-time reference evaluator.
func reference(t *testing.T, an *workflow.Analysis, db DB, res *css.Result, observe []stats.Stat) *wftest.Result {
	t.Helper()
	plan, err := physical.Compile(an, db, physical.Options{Res: res, Observe: observe})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ref, err := wftest.Evaluate(plan)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return ref
}

// observedBy runs the instrumented initial plan on everything the
// hand-computed expectations below pin — the engine and the reference
// evaluator the goldens trust — and returns each store by name.
func observedBy(t *testing.T, an *workflow.Analysis, db DB, res *css.Result, observe []stats.Stat) map[string]*stats.Store {
	t.Helper()
	out := map[string]*stats.Store{"reference": reference(t, an, db, res, observe).Observed}
	run, err := New(an, db, nil).RunPlans(nil, res, observe)
	if err != nil {
		t.Fatalf("batch: RunPlans: %v", err)
	}
	out["batch"] = run.Observed
	return out
}

func findInput(t *testing.T, blk *workflow.Block, rel string) int {
	t.Helper()
	for i, in := range blk.Inputs {
		if in.SourceRel == rel {
			return i
		}
	}
	t.Fatalf("input %s missing", rel)
	return -1
}

func TestTapCardAndHistogram(t *testing.T) {
	db, cat := tinyDB()
	g := retailGraph()
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blk := an.Blocks[0]
	sp := res.Space(0)
	o := findInput(t, blk, "Orders")
	p := findInput(t, blk, "Product")
	pidClass := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "pid"})

	cardOP := stats.NewCard(stats.BlockSE(0, expr.NewSet(o, p)))
	histO := stats.NewHist(stats.BlockSE(0, expr.NewSet(o)), pidClass)
	distO := stats.NewDistinct(stats.BlockSE(0, expr.NewSet(o)), pidClass)
	for name, store := range observedBy(t, an, db, res, []stats.Stat{cardOP, histO, distO}) {
		v, ok := scalar(store, cardOP)
		if !ok || v != 4 {
			t.Fatalf("%s: |O⋈P| = %d (present %v); want 4", name, v, ok)
		}
		hv, ok := store.Get(histO)
		if !ok {
			t.Fatalf("%s: hist missing", name)
		}
		h := hv.Hist
		// Orders pids: 10,10,20,30,99.
		if h.Freq(10) != 2 || h.Freq(20) != 1 || h.Freq(99) != 1 {
			t.Fatalf("%s: histogram wrong: %v buckets", name, h.Buckets())
		}
		d, ok := scalar(store, distO)
		if !ok || d != 4 {
			t.Fatalf("%s: distinct = %d (present %v); want 4 (10,20,30,99)", name, d, ok)
		}
	}
}

func TestTapRejectSingleton(t *testing.T) {
	db, cat := tinyDB()
	g := retailGraph()
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blk := an.Blocks[0]
	o := findInput(t, blk, "Orders")
	p := findInput(t, blk, "Product")
	// Edge joining Orders and Product.
	f := -1
	for j, e := range blk.Joins {
		if e.LeftInput == o && e.RightInput == p || e.LeftInput == p && e.RightInput == o {
			f = j
		}
	}
	if f < 0 {
		t.Fatal("no O-P edge")
	}
	rejCard := stats.NewCard(stats.BlockRejectSE(0, expr.NewSet(o), o, f))
	for name, store := range observedBy(t, an, db, res, []stats.Stat{rejCard}) {
		v, ok := scalar(store, rejCard)
		if !ok || v != 1 { // order with pid=99 has no product
			t.Fatalf("%s: |T̄O| = %d (present %v); want 1", name, v, ok)
		}
	}
}

func TestTapRejectAuxiliaryJoin(t *testing.T) {
	// The union–division counter |T̄O ⋈ Customer|: rejects of Orders w.r.t.
	// Product, joined with Customer via the auxiliary join.
	db, cat := tinyDB()
	g := retailGraph()
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blk := an.Blocks[0]
	o := findInput(t, blk, "Orders")
	p := findInput(t, blk, "Product")
	c := findInput(t, blk, "Customer")
	f := -1
	for j, e := range blk.Joins {
		if e.LeftInput == o && e.RightInput == p || e.LeftInput == p && e.RightInput == o {
			f = j
		}
	}
	rejJoin := stats.NewCard(stats.BlockRejectSE(0, expr.NewSet(o, c), o, f))
	id, ok := res.Lookup(rejJoin)
	if !ok || !res.Observable[id] {
		t.Fatal("two-input reject variant should be observable")
	}
	if !res.NeedsRejectLink[id] {
		t.Fatal("reject variant should be marked NeedsRejectLink")
	}
	// The rejected order is (cid=3, oid=5, pid=99); Customer has cids 1,2:
	// the auxiliary join is empty.
	for name, store := range observedBy(t, an, db, res, []stats.Stat{rejJoin}) {
		v, ok := scalar(store, rejJoin)
		if !ok || v != 0 {
			t.Fatalf("%s: |T̄O⋈C| = %d (present %v); want 0", name, v, ok)
		}
	}
	// With a customer for cid 3 the rejected order finds one partner.
	db["Customer"].Rows = append(db["Customer"].Rows, []int64{3, 3})
	for name, store := range observedBy(t, an, db, res, []stats.Stat{rejJoin}) {
		v, ok := scalar(store, rejJoin)
		if !ok || v != 1 {
			t.Fatalf("%s: |T̄O⋈C| with cid 3 = %d (present %v); want 1", name, v, ok)
		}
	}
}

func TestTapChainPoint(t *testing.T) {
	db, cat := tinyDB()
	b := workflow.NewBuilder("chain")
	o := b.Source("Orders")
	f := b.Select(o, workflow.Predicate{Attr: workflow.Attr{Rel: "Orders", Col: "pid"}, Op: workflow.CmpLt, Const: 50})
	p := b.Source("Product")
	j := b.Join(f, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	b.Sink(j, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blk := an.Blocks[0]
	oIdx := findInput(t, blk, "Orders")
	// Raw chain point (before the select): card must be the full 5 rows;
	// the cooked SE card is 4 (pid 99 filtered).
	rawCard := stats.NewCard(stats.ChainPoint(0, oIdx, 0))
	cookedCard := stats.NewCard(stats.BlockSE(0, expr.NewSet(oIdx)))
	for name, store := range observedBy(t, an, db, res, []stats.Stat{rawCard, cookedCard}) {
		if v, _ := scalar(store, rawCard); v != 5 {
			t.Fatalf("%s: raw card = %d, want 5", name, v)
		}
		if v, _ := scalar(store, cookedCard); v != 4 {
			t.Fatalf("%s: cooked card = %d, want 4", name, v)
		}
	}
}

func TestTapSkipsNonObservable(t *testing.T) {
	db, cat := tinyDB()
	g := retailGraph()
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blk := an.Blocks[0]
	o := findInput(t, blk, "Orders")
	c := findInput(t, blk, "Customer")
	// O⋈C is not produced by the initial plan, so no node carries its tap:
	// asking for it must not record anything (and must not fail).
	unobservable := stats.NewCard(stats.BlockSE(0, expr.NewSet(o, c)))
	for name, store := range observedBy(t, an, db, res, []stats.Stat{unobservable}) {
		if store.Has(unobservable) {
			t.Fatalf("%s: unobservable statistic was recorded", name)
		}
	}
}

// scalar returns the stored scalar of s; ok is false when s is absent.
func scalar(st *stats.Store, s stats.Stat) (int64, bool) {
	v, ok := st.Get(s)
	if !ok {
		return 0, false
	}
	return v.Scalar, true
}
