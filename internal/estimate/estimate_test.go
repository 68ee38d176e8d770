package estimate

import (
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// checkExact asserts the paper's soundness claim on one pipeline outcome:
// every SE cardinality the estimator derives equals the brute-force count
// of wftest.SECard.
func checkExact(t *testing.T, an *workflow.Analysis, res *css.Result, est *Estimator, db engine.DB, run *engine.Result) {
	t.Helper()
	for bi, sp := range res.Spaces {
		blk := an.Blocks[bi]
		for _, se := range sp.SEs {
			want, err := wftest.SECard(an, db, run.BlockOut, bi, se)
			if err != nil {
				t.Fatalf("SECard(block %d, %s): %v", bi, se.Label(blk), err)
			}
			got, err := est.CardOf(bi, se)
			if err != nil {
				t.Fatalf("CardOf(block %d, %s): %v", bi, se.Label(blk), err)
			}
			if got != want {
				t.Errorf("block %d SE %s: estimated %d, truth %d", bi, se.Label(blk), got, want)
			}
		}
	}
}

// pipeline runs the full framework: analyze, generate CSS, select optimal
// statistics, execute the instrumented initial plan, and return everything
// needed to estimate.
func pipeline(t *testing.T, g *workflow.Graph, cat *workflow.Catalog, db engine.DB, cssOpt css.Options, method selector.Method) (*workflow.Analysis, *css.Result, *selector.Selection, *Estimator, *engine.Result) {
	t.Helper()
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, cssOpt)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	u, err := selector.NewUniverseOpts(res, costmodel.NewMemoryCoster(res, an.Cat), selector.UniverseOptions{})
	if err != nil {
		t.Fatalf("NewUniverseOpts: %v", err)
	}
	sel, err := selector.SelectUniverse(u, selector.Options{Method: method})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	eng := engine.New(an, db, nil)
	run, err := eng.RunPlans(nil, res, sel.Observe)
	if err != nil {
		t.Fatalf("RunPlans: %v", err)
	}
	return an, res, sel, New(res, run.Observed), run
}

// zipfRetail builds the retail workflow over skewed synthetic data.
func zipfRetail(t *testing.T, seed int64) (*workflow.Graph, *workflow.Catalog, engine.DB) {
	t.Helper()
	return retailOrders(t, seed, 2000)
}

// retailOrders is zipfRetail with orders rows in Orders: one workflow,
// another day's data.
func retailOrders(t *testing.T, seed, orders int64) (*workflow.Graph, *workflow.Catalog, engine.DB) {
	t.Helper()
	specs := []data.TableSpec{
		{Rel: "Orders", Card: orders, Columns: []data.ColumnSpec{
			{Name: "oid", Serial: true},
			{Name: "pid", Domain: 60, Skew: 1.4},
			{Name: "cid", Domain: 40, Skew: 1.6},
		}},
		{Rel: "Product", Card: 80, Columns: []data.ColumnSpec{
			{Name: "pid", Domain: 60, Skew: 1.2},
			{Name: "price", Domain: 500},
		}},
		{Rel: "Customer", Card: 50, Columns: []data.ColumnSpec{
			{Name: "cid", Domain: 40, Skew: 1.1},
			{Name: "region", Domain: 10},
		}},
	}
	db := engine.DB{}
	cat := &workflow.Catalog{}
	for i, spec := range specs {
		tbl := data.Generate(spec, seed+int64(i))
		db[spec.Rel] = tbl
		cat.Relations = append(cat.Relations, data.CatalogEntry(tbl, spec))
	}
	b := workflow.NewBuilder("retail")
	o := b.Source("Orders")
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	j2 := b.Join(j1, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "dw")
	return b.Graph(), cat, db
}

// TestExactnessRetail is the paper's core soundness claim: the statistics
// chosen by the framework and observed in ONE run of the initial plan
// suffice to compute the cardinality of EVERY sub-expression exactly.
func TestExactnessRetail(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  css.Options
	}{
		{"plain", css.Options{}},
		{"union-division", css.Options{UnionDivision: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, cat, db := zipfRetail(t, 42)
			an, res, _, est, run := pipeline(t, g, cat, db, tc.opt, selector.MethodExact)
			checkExact(t, an, res, est, db, run)
		})
	}
}

// TestExactnessWithChains adds selection and transform chains: S1/S2/U1/U2
// must hold through pushed-down operators.
func TestExactnessWithChains(t *testing.T) {
	g0, cat, db := zipfRetail(t, 7)
	_ = g0
	b := workflow.NewBuilder("chains")
	o := b.Source("Orders")
	f := b.Select(o, workflow.Predicate{Attr: workflow.Attr{Rel: "Orders", Col: "pid"}, Op: workflow.CmpLe, Const: 30})
	x := b.Transform(f, "bucket10", workflow.Attr{Rel: "X", Col: "bkt"}, workflow.Attr{Rel: "Orders", Col: "oid"})
	p := b.Source("Product")
	fp := b.Select(p, workflow.Predicate{Attr: workflow.Attr{Rel: "Product", Col: "price"}, Op: workflow.CmpGt, Const: 100})
	c := b.Source("Customer")
	j1 := b.Join(x, fp, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	j2 := b.Join(j1, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "dw")
	an, res, _, est, run := pipeline(t, b.Graph(), cat, db, css.DefaultOptions(), selector.MethodExact)
	checkExact(t, an, res, est, db, run)
}

// TestExactnessMultiBlock exercises the cross-block rules: a group-by
// boundary splits the flow; downstream estimates must still be exact.
func TestExactnessMultiBlock(t *testing.T) {
	_, cat, db := zipfRetail(t, 13)
	b := workflow.NewBuilder("multiblock")
	o := b.Source("Orders")
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	gby := b.GroupBy(j1, workflow.Attr{Rel: "Orders", Col: "cid"})
	j2 := b.Join(gby, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "dw")
	an, res, _, est, run := pipeline(t, b.Graph(), cat, db, css.DefaultOptions(), selector.MethodExact)
	if len(an.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(an.Blocks))
	}
	checkExact(t, an, res, est, db, run)
}

// TestGreedySelectionAlsoSuffices checks the soundness of the greedy
// heuristic's selection, not just the exact one.
func TestGreedySelectionAlsoSuffices(t *testing.T) {
	g, cat, db := zipfRetail(t, 99)
	an, res, _, est, run := pipeline(t, g, cat, db, css.DefaultOptions(), selector.MethodGreedy)
	checkExact(t, an, res, est, db, run)
}

// TestUnderivableWithoutObservation: estimating from an empty store fails
// cleanly.
func TestUnderivableWithoutObservation(t *testing.T) {
	g, cat, _ := zipfRetail(t, 5)
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	est := New(res, stats.NewStore())
	if _, err := est.CardOf(0, res.Space(0).Full()); err == nil {
		t.Fatal("estimating from empty store: want error")
	}
}

func TestExplainDerivationTree(t *testing.T) {
	g, cat, db := zipfRetail(t, 21)
	an, res, _, est, _ := pipeline(t, g, cat, db, css.DefaultOptions(), selector.MethodExact)
	blk := an.Blocks[0]
	sp := res.Space(0)
	// Explain the full SE's cardinality.
	full := stats.NewCard(stats.BlockSE(0, sp.Full()))
	ex, err := est.Explain(full)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if ex.Value.Scalar <= 0 {
		t.Fatalf("explained value = %d", ex.Value.Scalar)
	}
	// An observed statistic explains itself with no inputs.
	for _, leaf := range observedLeaves(ex) {
		lex, err := est.Explain(leaf)
		if err != nil {
			t.Fatalf("Explain(leaf): %v", err)
		}
		if lex.Rule != "observed" || len(lex.Inputs) != 0 {
			t.Fatalf("leaf explanation wrong: rule=%s inputs=%d", lex.Rule, len(lex.Inputs))
		}
	}
	// Rendering mentions the SE label and the rule.
	out := ex.Render(blk)
	if !strings.Contains(out, "Orders") {
		t.Fatalf("render lacks input names:\n%s", out)
	}
	// An unobservable SE's explanation bottoms out in observed leaves only.
	var oIdx, cIdx int
	for i, in := range blk.Inputs {
		switch in.SourceRel {
		case "Orders":
			oIdx = i
		case "Customer":
			cIdx = i
		}
	}
	oc := stats.NewCard(stats.BlockSE(0, expr.NewSet(oIdx, cIdx)))
	ex2, err := est.Explain(oc)
	if err != nil {
		t.Fatalf("Explain(OC): %v", err)
	}
	if ex2.Rule == "observed" {
		t.Fatal("|O⋈C| cannot be observed under the initial plan")
	}
	if len(observedLeaves(ex2)) == 0 {
		t.Fatal("derivation has no observed leaves")
	}
}

// TestExplainReadsTheDerivation pins that Explain reads back the candidate
// set Value derived a statistic through instead of evaluating candidates
// again: explaining a union–division (J4/J5) derivation costs the tree and
// the store probes of its nodes, none of the histogram algebra.
func TestExplainReadsTheDerivation(t *testing.T) {
	w := suite.MustGet(3)
	_, res, _, est, _ := pipeline(t, w.Graph, w.Catalog, w.Data(0.002), css.DefaultOptions(), selector.MethodExact)
	var target stats.Stat
	var ex *Explanation
	for _, s := range res.Required {
		e, err := est.Explain(s)
		if err == nil && (e.Rule == "J4" || e.Rule == "J5") {
			target, ex = s, e
			break
		}
	}
	if ex == nil {
		t.Fatal("wf03 derives no SE cardinality through J4 or J5")
	}
	nodes := 0
	var count func(*Explanation)
	count = func(n *Explanation) {
		nodes++
		for _, in := range n.Inputs {
			count(in)
		}
	}
	count(ex)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := est.Explain(target); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Explain(%v, rule %s): %d nodes, %.0f allocations", target.Key(), ex.Rule, nodes, allocs)
	if allocs > float64(4*nodes) {
		t.Errorf("Explain allocated %.0f times for a %d-node tree: it re-derives instead of reading the memo", allocs, nodes)
	}
}

// observedLeaves returns the observed statistics a derivation bottoms out in.
func observedLeaves(ex *Explanation) []stats.Stat {
	if ex.Rule == "observed" {
		return []stats.Stat{ex.Stat}
	}
	var out []stats.Stat
	for _, in := range ex.Inputs {
		out = append(out, observedLeaves(in)...)
	}
	return out
}

// TestEveryRuleHasEvaluator pins that css and estimate know the same rules:
// every declared rule has a name and an evaluator, and every rule
// css.Generate emits over the 30 suite workflows is a declared one.
func TestEveryRuleHasEvaluator(t *testing.T) {
	names := make(map[string]css.Rule)
	for r := css.Rule(0); r < css.NumRules; r++ {
		if evaluators[r] == nil {
			t.Errorf("rule %v has no evaluator", r)
		}
		if prev, dup := names[r.String()]; dup || r.String() == "" {
			t.Errorf("rule %d is named %q, as is rule %d", r, r.String(), prev)
		}
		names[r.String()] = r
	}
	emitted := make(map[css.Rule]bool)
	for _, w := range suite.All() {
		an, err := workflow.Analyze(w.Graph, w.Catalog)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", w.Name, err)
		}
		res, err := css.Generate(an, css.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Generate: %v", w.Name, err)
		}
		for id, cands := range res.CSS {
			for _, c := range cands {
				if c.Rule >= css.NumRules {
					t.Fatalf("%s: %v has a candidate set of undeclared rule %v", w.Name, res.Stats[id].Key(), c.Rule)
				}
				emitted[c.Rule] = true
			}
		}
	}
	if len(emitted) == 0 {
		t.Fatal("the suite emitted no candidate sets")
	}
	t.Logf("the suite emits %d of the %d declared rules", len(emitted), css.NumRules)
}
