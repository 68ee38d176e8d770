package css

import (
	"fmt"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// retailAnalysis builds the paper's running example (Figure 1(a)):
// (Orders ⋈ Product) ⋈ Customer as a single optimizable block.
func retailAnalysis(t *testing.T) *workflow.Analysis {
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
	return an
}

// cssOf returns a statistic's candidate sets in descriptor form (none for a
// statistic outside the universe), going through the Lookup door.
func cssOf(res *Result, s stats.Stat) []stats.CSS {
	id, ok := res.Lookup(s)
	if !ok {
		return nil
	}
	out := make([]stats.CSS, len(res.CSS[id]))
	for i, c := range res.CSS[id] {
		out[i] = res.Describe(c)
	}
	return out
}

func observable(res *Result, s stats.Stat) bool {
	id, ok := res.Lookup(s)
	return ok && res.Observable[id]
}

func inputIdx(t *testing.T, blk *workflow.Block, name string) int {
	t.Helper()
	for i, in := range blk.Inputs {
		if in.Name == name {
			return i
		}
	}
	t.Fatalf("input %q not found", name)
	return -1
}

func TestGenerateRetailRequiredSet(t *testing.T) {
	an := retailAnalysis(t)
	res, err := Generate(an, DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// S_C is the cardinality of all 6 SEs (O, P, C, OP, OC, OPC).
	if got := len(res.Required); got != 6 {
		t.Fatalf("|S_C| = %d, want 6", got)
	}
	if got := res.NumSEs(); got != 6 {
		t.Fatalf("NumSEs = %d, want 6", got)
	}
	for _, s := range res.Required {
		if s.Kind != stats.Card {
			t.Errorf("required stat %v is not a cardinality", s.Key())
		}
	}
}

func TestGenerateRetailJ1CSS(t *testing.T) {
	an := retailAnalysis(t)
	res, err := Generate(an, Options{}) // no union-division
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blk := an.Blocks[0]
	sp := res.Space(0)
	o := inputIdx(t, blk, "Orders")
	p := inputIdx(t, blk, "Product")
	c := inputIdx(t, blk, "Customer")
	full := expr.NewSet(o, p, c)

	// |OPC| must have the two J1 CSSs of Section 4.3: {H^cid_OP, H^cid_C}
	// and {H^pid_OC, H^pid_P}.
	cardFull := stats.NewCard(stats.BlockSE(0, full))
	csss := cssOf(res, cardFull)
	var j1 int
	for _, cs := range csss {
		if cs.Rule == RuleJ1.String() {
			j1++
			if len(cs.Inputs) != 2 {
				t.Errorf("J1 CSS has %d inputs", len(cs.Inputs))
			}
		}
	}
	if j1 != 2 {
		t.Fatalf("|OPC| has %d J1 CSSs, want 2: %+v", j1, csss)
	}
	// H^pid_OC must get the J2 CSS {H^{pid,cid}_O, H^cid_C} (Section 4.3).
	pidClass := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "pid"})
	cidClass := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "cid"})
	hOC := stats.NewHist(stats.BlockSE(0, expr.NewSet(o, c)), pidClass)
	found := false
	for _, cs := range cssOf(res, hOC) {
		if cs.Rule != RuleJ2.String() || len(cs.Inputs) != 2 {
			continue
		}
		var hasJoint, hasCid bool
		for _, in := range cs.Inputs {
			if in.Target.Set == expr.NewSet(o) && len(in.Attrs) == 2 {
				hasJoint = true
			}
			if in.Target.Set == expr.NewSet(c) && len(in.Attrs) == 1 && in.Attrs[0] == cidClass {
				hasCid = true
			}
		}
		if hasJoint && hasCid {
			found = true
		}
	}
	if !found {
		t.Errorf("H^pid_OC lacks the J2 CSS {H^{pid,cid}_O, H^cid_C}: %+v", cssOf(res, hOC))
	}
}

func TestGenerateUnionDivisionAddsCSS(t *testing.T) {
	an := retailAnalysis(t)
	plain, err := Generate(an, Options{})
	if err != nil {
		t.Fatalf("Generate(plain): %v", err)
	}
	ud, err := Generate(an, Options{UnionDivision: true})
	if err != nil {
		t.Fatalf("Generate(ud): %v", err)
	}
	if ud.NumCSS() <= plain.NumCSS() {
		t.Fatalf("union-division should add CSSs: %d vs %d", ud.NumCSS(), plain.NumCSS())
	}
	// |OC| is unobservable in the initial plan; union-division must offer
	// a J4 CSS exploiting the observable OPC.
	blk := an.Blocks[0]
	o := inputIdx(t, blk, "Orders")
	c := inputIdx(t, blk, "Customer")
	cardOC := stats.NewCard(stats.BlockSE(0, expr.NewSet(o, c)))
	var hasJ4 bool
	for _, cs := range cssOf(ud, cardOC) {
		if cs.Rule == RuleJ4.String() {
			hasJ4 = true
			if len(cs.Inputs) != 3 {
				t.Errorf("J4 CSS has %d inputs, want 3", len(cs.Inputs))
			}
			var rejects int
			for _, in := range cs.Inputs {
				if in.Target.IsReject() {
					rejects++
				}
			}
			if rejects != 1 {
				t.Errorf("J4 CSS has %d reject inputs, want 1", rejects)
			}
		}
	}
	if !hasJ4 {
		t.Fatalf("|OC| lacks a J4 CSS: %+v", cssOf(ud, cardOC))
	}
}

func TestGenerateRejectSingletonObservable(t *testing.T) {
	an := retailAnalysis(t)
	res, err := Generate(an, DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// The initial plan joins Orders directly with Product (edge 0), so
	// T̄Orders w.r.t. that edge is observable via an added reject link.
	blk := an.Blocks[0]
	o := inputIdx(t, blk, "Orders")
	foundObservableReject := false
	for k, s := range res.Stats {
		if s.Target.IsReject() && s.Target.Set.Len() == 1 && s.Target.RejectInput == o {
			if res.Observable[k] {
				foundObservableReject = true
				if !res.NeedsRejectLink[k] {
					t.Error("observable reject stat should be marked NeedsRejectLink")
				}
			}
		}
	}
	if !foundObservableReject {
		t.Fatal("no observable reject singleton found")
	}
}

func TestGenerateObservability(t *testing.T) {
	an := retailAnalysis(t)
	res, err := Generate(an, Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blk := an.Blocks[0]
	o := inputIdx(t, blk, "Orders")
	p := inputIdx(t, blk, "Product")
	c := inputIdx(t, blk, "Customer")
	// OP is in the initial plan: |OP| observable. OC is not.
	if !observable(res, stats.NewCard(stats.BlockSE(0, expr.NewSet(o, p)))) {
		t.Error("|OP| should be observable")
	}
	if observable(res, stats.NewCard(stats.BlockSE(0, expr.NewSet(o, c)))) {
		t.Error("|OC| should not be observable")
	}
	// Base relations always observable.
	for _, i := range []int{o, p, c} {
		if !observable(res, stats.NewCard(stats.BlockSE(0, expr.NewSet(i)))) {
			t.Errorf("base input %d cardinality should be observable", i)
		}
	}
}

func TestGenerateIdentityRules(t *testing.T) {
	an := retailAnalysis(t)
	res, err := Generate(an, Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// I1: every SE cardinality gains CSSs from existing histograms on the
	// same target.
	blk := an.Blocks[0]
	o := inputIdx(t, blk, "Orders")
	cardO := stats.NewCard(stats.BlockSE(0, expr.NewSet(o)))
	var hasI1 bool
	for _, cs := range cssOf(res, cardO) {
		if cs.Rule == RuleI1.String() {
			hasI1 = true
			if len(cs.Inputs) != 1 || cs.Inputs[0].Kind != stats.Hist {
				t.Errorf("I1 CSS malformed: %+v", cs)
			}
		}
	}
	if !hasI1 {
		t.Error("|Orders| lacks an I1 CSS")
	}
	// I2: the paper's example — H^cid_OP computable from the finer
	// H^{cid,pid}_OP generated by the regular rules, which covers the
	// substituted CSS {H^{cid,pid}_OP, H^cid_C} for |OPC| through the
	// closure.
	var hasI2 bool
	for id, list := range res.CSS {
		for _, cs := range list {
			if cs.Rule == RuleI2 {
				if len(cs.Inputs) != 1 || res.Stats[cs.Inputs[0]].Kind != stats.Hist {
					t.Errorf("I2 CSS malformed: %+v", cs)
				}
				if len(res.Stats[cs.Inputs[0]].Attrs) <= len(res.Stats[id].Attrs) {
					t.Errorf("I2 input not a strict superset: %+v", cs)
				}
				hasI2 = true
			}
			// No CSS may reference its own target, and every input must be
			// part of the universe.
			for _, in := range cs.Inputs {
				if int(in) == id {
					t.Errorf("CSS for %v references itself", res.Stats[id].Key())
				}
				if in < 0 || int(in) >= len(res.Stats) {
					t.Errorf("CSS input %d missing from universe", in)
				}
			}
		}
	}
	if !hasI2 {
		t.Error("no I2 CSS generated anywhere")
	}
}

func TestGenerateFKShortcut(t *testing.T) {
	// fkCSS generates the fact–dimension workflow, its join built with
	// FKJoin or Join, and returns the FK candidates of the join's
	// cardinality.
	fkCSS := func(fk bool) []stats.CSS {
		t.Helper()
		cat := &workflow.Catalog{Relations: []*workflow.Relation{
			{Name: "Fact", Card: 1000, Columns: []workflow.Column{{Name: "k", Domain: 100}}},
			{Name: "Dim", Card: 100, Columns: []workflow.Column{{Name: "k", Domain: 100}}},
		}}
		b := workflow.NewBuilder("fk")
		f := b.Source("Fact")
		d := b.Source("Dim")
		join := b.Join
		if fk {
			join = b.FKJoin
		}
		b.Sink(join(f, d, workflow.Attr{Rel: "Fact", Col: "k"}, workflow.Attr{Rel: "Dim", Col: "k"}), "dw")
		an, err := workflow.Analyze(b.Graph(), cat)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		res, err := Generate(an, DefaultOptions())
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		var out []stats.CSS
		for _, cs := range cssOf(res, stats.NewCard(stats.BlockSE(0, res.Space(0).Full()))) {
			if cs.Rule == RuleFK.String() {
				out = append(out, cs)
			}
		}
		return out
	}
	got := fkCSS(true)
	if len(got) == 0 {
		t.Error("FK join lacks the look-up shortcut CSS")
	}
	for _, cs := range got {
		if len(cs.Inputs) != 1 || cs.Inputs[0].Kind != stats.Card {
			t.Errorf("FK CSS malformed: %+v", cs)
		}
	}
	// The shortcut follows the workflow: a plain join has none.
	if got := fkCSS(false); len(got) != 0 {
		t.Errorf("plain join has FK CSSs: %+v", got)
	}
}

func TestGenerateChainRules(t *testing.T) {
	// Orders is filtered then joined: the chain rules must relate the
	// filtered input's stats to the raw source via S1/S2.
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "Orders", Card: 1000, Columns: []workflow.Column{
			{Name: "pid", Domain: 50}, {Name: "qty", Domain: 10},
		}},
		{Name: "Product", Card: 50, Columns: []workflow.Column{{Name: "pid", Domain: 50}}},
	}}
	b := workflow.NewBuilder("chainrules")
	o := b.Source("Orders")
	f := b.Select(o, workflow.Predicate{Attr: workflow.Attr{Rel: "Orders", Col: "qty"}, Op: workflow.CmpGt, Const: 5})
	p := b.Source("Product")
	j := b.Join(f, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	b.Sink(j, "dw")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := Generate(an, Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blk := an.Blocks[0]
	oIdx := inputIdx(t, blk, "Orders")
	// |σ(Orders)| must have an S1 CSS referencing the raw chain point.
	cardO := stats.NewCard(stats.BlockSE(0, expr.NewSet(oIdx)))
	var hasS1 bool
	for _, cs := range cssOf(res, cardO) {
		if cs.Rule == RuleS1.String() {
			hasS1 = true
			in := cs.Inputs[0]
			if !in.Target.IsChainPoint() || in.Target.Depth != 0 {
				t.Errorf("S1 input should be the raw chain point, got %+v", in.Target)
			}
		}
	}
	if !hasS1 {
		t.Errorf("filtered input lacks S1 CSS: %+v", cssOf(res, cardO))
	}
	// H^pid of the filtered input needs the joint (pid,qty) on the raw
	// source (S2).
	sp := res.Space(0)
	pidClass := sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "pid"})
	hO := stats.NewHist(stats.BlockSE(0, expr.NewSet(oIdx)), pidClass)
	var hasS2 bool
	for _, cs := range cssOf(res, hO) {
		if cs.Rule == RuleS2.String() && len(cs.Inputs) == 1 && len(cs.Inputs[0].Attrs) == 2 {
			hasS2 = true
		}
	}
	if !hasS2 {
		t.Errorf("H^pid of filtered input lacks S2 CSS: %+v", cssOf(res, hO))
	}
	// Chain points are observable.
	raw := stats.NewHist(stats.ChainPoint(0, oIdx, 0), pidClass, sp.ClassOf(workflow.Attr{Rel: "Orders", Col: "qty"}))
	if !observable(res, raw) {
		t.Error("raw chain point histogram should be observable")
	}
}

func TestGenerateCrossBlockGroupBy(t *testing.T) {
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "Orders", Card: 1000, Columns: []workflow.Column{
			{Name: "pid", Domain: 50}, {Name: "cid", Domain: 20},
		}},
		{Name: "Product", Card: 50, Columns: []workflow.Column{{Name: "pid", Domain: 50}}},
		{Name: "Customer", Card: 20, Columns: []workflow.Column{{Name: "cid", Domain: 20}}},
	}}
	b := workflow.NewBuilder("crossblock")
	o := b.Source("Orders")
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	gby := b.GroupBy(j1, workflow.Attr{Rel: "Orders", Col: "cid"})
	j2 := b.Join(gby, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "dw")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := Generate(an, DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(an.Blocks) != 2 {
		t.Fatalf("want 2 blocks, got %d", len(an.Blocks))
	}
	// The downstream block's group-by input must gain a G1 CSS for its
	// cardinality referencing the upstream distinct count.
	blk1 := an.Blocks[1]
	gIdx := -1
	for i, in := range blk1.Inputs {
		if in.FromBlock == 0 {
			gIdx = i
		}
	}
	if gIdx < 0 {
		t.Fatal("downstream block lacks the upstream input")
	}
	cardG := stats.NewCard(stats.BlockSE(1, expr.NewSet(gIdx)))
	var hasG1 bool
	for _, cs := range cssOf(res, cardG) {
		if cs.Rule == RuleG1.String() {
			hasG1 = true
			if cs.Inputs[0].Kind != stats.Distinct || cs.Inputs[0].Target.Block != 0 {
				t.Errorf("G1 input should be the upstream distinct count, got %+v", cs.Inputs[0])
			}
		}
	}
	if !hasG1 {
		t.Errorf("group-by boundary lacks G1 CSS: %+v", cssOf(res, cardG))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	an := retailAnalysis(t)
	r1, err := Generate(an, DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	r2, err := Generate(an, DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if a, b := render(r1), render(r2); a != b {
		t.Fatalf("nondeterministic generation:\n%s\nvs\n%s", a, b)
	}
}

// render spells a result canonically: the universe in order with its
// observability bits, every candidate set, and S_C (the rendering the
// suite's planner digest hashes).
func render(res *Result) string {
	var sb strings.Builder
	for id, s := range res.Stats {
		fmt.Fprintf(&sb, "%d %v obs=%t rej=%t\n", id, s.Key(), res.Observable[id], res.NeedsRejectLink[id])
		for _, c := range res.CSS[id] {
			fmt.Fprintf(&sb, "  %s %v %v\n", c.Rule, c.Join, c.Inputs)
		}
	}
	fmt.Fprintf(&sb, "required %v\n", res.RequiredIDs)
	return sb.String()
}

func TestPhysicalAttrs(t *testing.T) {
	an := retailAnalysis(t)
	res, err := Generate(an, DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	blk := an.Blocks[0]
	sp := res.Space(0)
	p := inputIdx(t, blk, "Product")
	class := sp.ClassOf(workflow.Attr{Rel: "Product", Col: "pid"})
	// On the Product singleton, the class must resolve to Product.pid even
	// if the representative is Orders.pid.
	s := stats.NewHist(stats.BlockSE(0, expr.NewSet(p)), class)
	phys, err := res.PhysicalAttrs(s)
	if err != nil {
		t.Fatalf("PhysicalAttrs: %v", err)
	}
	if len(phys) != 1 || phys[0] != (workflow.Attr{Rel: "Product", Col: "pid"}) {
		t.Fatalf("PhysicalAttrs = %v, want Product.pid", phys)
	}
}

func TestBoundaryClassAndChainDepth(t *testing.T) {
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "Orders", Card: 100, Columns: []workflow.Column{
			{Name: "pid", Domain: 10}, {Name: "cid", Domain: 10},
		}},
		{Name: "Product", Card: 10, Columns: []workflow.Column{{Name: "pid", Domain: 10}}},
		{Name: "Customer", Card: 10, Columns: []workflow.Column{{Name: "cid", Domain: 10}}},
	}}
	b := workflow.NewBuilder("xb")
	o := b.Source("Orders")
	f := b.Select(o, workflow.Predicate{Attr: workflow.Attr{Rel: "Orders", Col: "pid"}, Op: workflow.CmpGt, Const: 2})
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(f, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	g := b.GroupBy(j1, workflow.Attr{Rel: "Orders", Col: "cid"})
	j2 := b.Join(g, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "dw")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := Generate(an, DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Block 0's Orders input carries one pushed-down select.
	blk0 := an.Blocks[0]
	oIdx := inputIdx(t, blk0, "Orders")
	if d := res.blocks[0].chainLen(oIdx); d != 1 {
		t.Fatalf("chain depth of Orders = %d, want 1", d)
	}
	// Block 1's upstream input translates its class to block 0's space.
	blk1 := an.Blocks[1]
	upIdx := -1
	for i, in := range blk1.Inputs {
		if in.FromBlock == 0 {
			upIdx = i
		}
	}
	if upIdx < 0 {
		t.Fatal("block 1 lacks the boundary input")
	}
	downClass := res.Space(1).ClassOf(workflow.Attr{Rel: "Orders", Col: "cid"})
	upClass, err := res.BoundaryClass(1, upIdx, downClass)
	if err != nil {
		t.Fatalf("BoundaryClass: %v", err)
	}
	if res.Space(0).ClassOf(workflow.Attr{Rel: "Orders", Col: "cid"}) != upClass {
		t.Fatalf("BoundaryClass = %v", upClass)
	}
	// A base-relation input is not a boundary.
	cIdx := -1
	for i, in := range blk1.Inputs {
		if in.SourceRel == "Customer" {
			cIdx = i
		}
	}
	if _, err := res.BoundaryClass(1, cIdx, downClass); err == nil {
		t.Fatal("BoundaryClass over a base input: want error")
	}
}
