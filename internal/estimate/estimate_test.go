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
	"github.com/essential-stats/etlopt/internal/workflow"
)

// oracle materializes SE ground truth independently of the engine: it
// applies input chains and then nested-loop joins, so any agreement with
// the estimator is meaningful.
type oracle struct {
	t   *testing.T
	an  *workflow.Analysis
	db  engine.DB
	reg engine.Registry
	out map[int]*data.Table // block outputs from a real run, for boundaries
}

func (o *oracle) input(blk *workflow.Block, i int) *data.Table {
	in := blk.Inputs[i]
	var tbl *data.Table
	switch {
	case in.SourceRel != "":
		tbl = o.db[in.SourceRel]
	case in.FromBlock >= 0:
		tbl = o.out[in.FromBlock]
	}
	if tbl == nil {
		o.t.Fatalf("oracle: input %d unresolvable", i)
	}
	for _, op := range in.Ops {
		tbl = o.applyOp(tbl, op)
	}
	return tbl
}

func (o *oracle) applyOp(tbl *data.Table, op *workflow.Node) *data.Table {
	switch op.Kind {
	case workflow.KindSelect:
		c := tbl.Col(op.Pred.Attr)
		res := &data.Table{Rel: tbl.Rel, Attrs: tbl.Attrs}
		for _, r := range tbl.Rows {
			if op.Pred.Matches(r[c]) {
				res.Rows = append(res.Rows, r)
			}
		}
		return res
	case workflow.KindProject:
		cols := make([]int, len(op.Cols))
		for i, a := range op.Cols {
			cols[i] = tbl.Col(a)
		}
		res := &data.Table{Rel: tbl.Rel, Attrs: append([]workflow.Attr(nil), op.Cols...)}
		for _, r := range tbl.Rows {
			row := make(data.Row, len(cols))
			for i, c := range cols {
				row[i] = r[c]
			}
			res.Rows = append(res.Rows, row)
		}
		return res
	case workflow.KindTransform:
		fn := o.reg[op.Transform.Fn]
		ins := make([]int, len(op.Transform.Ins))
		for i, a := range op.Transform.Ins {
			ins[i] = tbl.Col(a)
		}
		res := &data.Table{Rel: tbl.Rel, Attrs: append(append([]workflow.Attr(nil), tbl.Attrs...), op.Transform.Out)}
		for _, r := range tbl.Rows {
			buf := make([]int64, len(ins))
			for i, c := range ins {
				buf[i] = r[c]
			}
			res.Rows = append(res.Rows, append(append(data.Row{}, r...), fn(buf)))
		}
		return res
	default:
		o.t.Fatalf("oracle: unsupported chain op %v", op.Kind)
		return nil
	}
}

// seCard joins the SE's inputs with nested loops following the block's join
// edges and returns the result cardinality.
func (o *oracle) seCard(blk *workflow.Block, se expr.Set) int64 {
	members := se.Members()
	cur := o.input(blk, members[0])
	joined := expr.NewSet(members[0])
	for joined != se {
		progress := false
		for _, e := range blk.Joins {
			var next int
			switch {
			case joined.Has(e.LeftInput) && se.Has(e.RightInput) && !joined.Has(e.RightInput):
				next = e.RightInput
			case joined.Has(e.RightInput) && se.Has(e.LeftInput) && !joined.Has(e.LeftInput):
				next = e.LeftInput
			default:
				continue
			}
			nt := o.input(blk, next)
			la, ra := e.LeftAttr, e.RightAttr
			if cur.Col(la) < 0 {
				la, ra = ra, la
			}
			lc, rc := cur.Col(la), nt.Col(ra)
			if lc < 0 || rc < 0 {
				o.t.Fatalf("oracle: join attrs not found: %v/%v", la, ra)
			}
			res := &data.Table{Rel: "x", Attrs: append(append([]workflow.Attr(nil), cur.Attrs...), nt.Attrs...)}
			for _, l := range cur.Rows {
				for _, r := range nt.Rows {
					if l[lc] == r[rc] {
						res.Rows = append(res.Rows, append(append(data.Row{}, l...), r...))
					}
				}
			}
			cur = res
			joined = joined.Add(next)
			progress = true
		}
		if !progress {
			o.t.Fatalf("oracle: SE %v not connected", se)
		}
	}
	return cur.Card()
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
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	sel, err := selector.Select(res, coster, selector.Options{Method: method})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	eng := engine.New(an, db, nil)
	run, err := eng.RunObserved(res, sel.Observe)
	if err != nil {
		t.Fatalf("RunObserved: %v", err)
	}
	return an, res, sel, New(res, run.Observed), run
}

// zipfRetail builds the retail workflow over skewed synthetic data.
func zipfRetail(t *testing.T, seed int64) (*workflow.Graph, *workflow.Catalog, engine.DB) {
	t.Helper()
	specs := []data.TableSpec{
		{Rel: "Orders", Card: 2000, Columns: []data.ColumnSpec{
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
		{"all", css.DefaultOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, cat, db := zipfRetail(t, 42)
			an, res, _, est, run := pipeline(t, g, cat, db, tc.opt, selector.MethodExact)
			o := &oracle{t: t, an: an, db: db, reg: engine.DefaultRegistry(), out: run.BlockOut}
			for bi, sp := range res.Spaces {
				blk := an.Blocks[bi]
				for _, se := range sp.SEs {
					want := o.seCard(blk, se)
					got, err := est.CardOf(bi, se)
					if err != nil {
						t.Fatalf("CardOf(block %d, %s): %v", bi, se.Label(blk), err)
					}
					if got != want {
						t.Errorf("block %d SE %s: estimated %d, truth %d", bi, se.Label(blk), got, want)
					}
				}
			}
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
	o2 := &oracle{t: t, an: an, db: db, reg: engine.DefaultRegistry(), out: run.BlockOut}
	for bi, sp := range res.Spaces {
		blk := an.Blocks[bi]
		for _, se := range sp.SEs {
			want := o2.seCard(blk, se)
			got, err := est.CardOf(bi, se)
			if err != nil {
				t.Fatalf("CardOf(%s): %v", se.Label(blk), err)
			}
			if got != want {
				t.Errorf("SE %s: estimated %d, truth %d", se.Label(blk), got, want)
			}
		}
	}
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
	o2 := &oracle{t: t, an: an, db: db, reg: engine.DefaultRegistry(), out: run.BlockOut}
	for bi, sp := range res.Spaces {
		blk := an.Blocks[bi]
		for _, se := range sp.SEs {
			want := o2.seCard(blk, se)
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

// TestGreedySelectionAlsoSuffices checks the soundness of the greedy
// heuristic's selection, not just the exact one.
func TestGreedySelectionAlsoSuffices(t *testing.T) {
	g, cat, db := zipfRetail(t, 99)
	an, res, _, est, run := pipeline(t, g, cat, db, css.DefaultOptions(), selector.MethodGreedy)
	o := &oracle{t: t, an: an, db: db, reg: engine.DefaultRegistry(), out: run.BlockOut}
	for bi, sp := range res.Spaces {
		blk := an.Blocks[bi]
		for _, se := range sp.SEs {
			want := o.seCard(blk, se)
			got, err := est.CardOf(bi, se)
			if err != nil {
				t.Fatalf("CardOf(%s): %v", se.Label(blk), err)
			}
			if got != want {
				t.Errorf("SE %s: estimated %d, truth %d", se.Label(blk), got, want)
			}
		}
	}
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

// TestSizeOfPrecisionBoundary verifies SizeOf refuses cardinalities beyond
// float64's exact-integer range (2^53) instead of silently rounding them
// into the cost arithmetic.
func TestSizeOfPrecisionBoundary(t *testing.T) {
	g, cat, _ := zipfRetail(t, 5)
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	target := stats.BlockSE(0, res.Space(0).Full())

	put := func(card int64) *Estimator {
		st := stats.NewStore()
		st.PutScalar(stats.NewCard(target), card)
		return New(res, st)
	}
	if got, ok := put(stats.MaxExactInt64).SizeOf(target); !ok || got != float64(stats.MaxExactInt64) {
		t.Fatalf("SizeOf(2^53) = %v, %v; want exact value", got, ok)
	}
	if _, ok := put(stats.MaxExactInt64 + 1).SizeOf(target); ok {
		t.Fatal("SizeOf(2^53+1): want unavailable, got a rounded size")
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
	for _, leaf := range ex.Leaves() {
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
	if ex.Depth() < 1 {
		t.Fatal("depth must be >= 1")
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
	if len(ex2.Leaves()) == 0 {
		t.Fatal("derivation has no observed leaves")
	}
}

func TestCoverage(t *testing.T) {
	g, cat, db := zipfRetail(t, 3)
	_, res, _, est, _ := pipeline(t, g, cat, db, css.DefaultOptions(), selector.MethodExact)
	d, total := Coverage(res, est.Store)
	if total == 0 || d != total {
		t.Fatalf("coverage %d/%d, want full", d, total)
	}
	// An empty store covers nothing.
	d0, total0 := Coverage(res, stats.NewStore())
	if d0 != 0 || total0 != total {
		t.Fatalf("empty-store coverage %d/%d", d0, total0)
	}
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
