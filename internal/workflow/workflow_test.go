package workflow

import (
	"bytes"
	"strings"
	"testing"
)

// retailCatalog is the Orders/Product/Customer schema from Figure 1 of the
// paper, reused across tests.
func retailCatalog() *Catalog {
	return &Catalog{Relations: []*Relation{
		{Name: "Orders", Card: 10000, Columns: []Column{
			{Name: "oid", Domain: 10000},
			{Name: "pid", Domain: 500},
			{Name: "cid", Domain: 2000},
		}},
		{Name: "Product", Card: 500, Columns: []Column{
			{Name: "pid", Domain: 500},
			{Name: "price", Domain: 1000},
		}},
		{Name: "Customer", Card: 2000, Columns: []Column{
			{Name: "cid", Domain: 2000},
			{Name: "region", Domain: 50},
		}},
	}}
}

// retailFlow builds the plan of Figure 1(a): (Orders ⋈ Product) ⋈ Customer.
func retailFlow() *Graph {
	b := NewBuilder("retail")
	o := b.Source("Orders")
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(o, p, Attr{"Orders", "pid"}, Attr{"Product", "pid"})
	j2 := b.Join(j1, c, Attr{"Orders", "cid"}, Attr{"Customer", "cid"})
	b.Sink(j2, "dw")
	return b.Graph()
}

func TestValidateRetail(t *testing.T) {
	if err := retailFlow().validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want string
	}{
		{
			name: "empty",
			g:    &Graph{Name: "x"},
			want: "no nodes",
		},
		{
			name: "duplicate id",
			g: &Graph{Name: "x", Nodes: []*Node{
				{ID: "a", Kind: KindSource, Rel: "R"},
				{ID: "a", Kind: KindSource, Rel: "S"},
			}},
			want: "duplicate node ID",
		},
		{
			name: "bad arity",
			g: &Graph{Name: "x", Nodes: []*Node{
				{ID: "a", Kind: KindSource, Rel: "R"},
				{ID: "j", Kind: KindJoin, Inputs: []NodeID{"a"}, Join: &JoinSpec{}},
			}},
			want: "want 2 inputs",
		},
		{
			name: "unknown input",
			g: &Graph{Name: "x", Nodes: []*Node{
				{ID: "a", Kind: KindSource, Rel: "R"},
				{ID: "s", Kind: KindSink, Inputs: []NodeID{"zzz"}, Rel: "t"},
			}},
			want: "unknown input",
		},
		{
			name: "dangling node",
			g: &Graph{Name: "x", Nodes: []*Node{
				{ID: "a", Kind: KindSource, Rel: "R"},
				{ID: "b", Kind: KindSource, Rel: "S"},
				{ID: "s", Kind: KindSink, Inputs: []NodeID{"a"}, Rel: "t"},
			}},
			want: "no consumer",
		},
		{
			name: "cycle",
			g: &Graph{Name: "x", Nodes: []*Node{
				{ID: "a", Kind: KindSelect, Inputs: []NodeID{"b"}, Pred: &Predicate{}},
				{ID: "b", Kind: KindSelect, Inputs: []NodeID{"a"}, Pred: &Predicate{}},
				{ID: "s", Kind: KindSink, Inputs: []NodeID{"b"}, Rel: "t"},
			}},
			want: "cycle",
		},
		{
			name: "select without predicate",
			g: &Graph{Name: "x", Nodes: []*Node{
				{ID: "a", Kind: KindSource, Rel: "R"},
				{ID: "f", Kind: KindSelect, Inputs: []NodeID{"a"}},
				{ID: "s", Kind: KindSink, Inputs: []NodeID{"f"}, Rel: "t"},
			}},
			want: "missing predicate",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.g.validate()
			if err == nil {
				t.Fatalf("Validate: want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate: want error containing %q, got %q", tc.want, err)
			}
		})
	}
}

func TestTopoOrder(t *testing.T) {
	g := retailFlow()
	order, err := g.topoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	if len(order) != len(g.Nodes) {
		t.Fatalf("TopoOrder: got %d nodes, want %d", len(order), len(g.Nodes))
	}
	pos := make(map[NodeID]int)
	for i, n := range order {
		pos[n.ID] = i
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if pos[in] >= pos[n.ID] {
				t.Errorf("node %s at %d before its input %s at %d", n.ID, pos[n.ID], in, pos[in])
			}
		}
	}
}

func TestSchemaPropagation(t *testing.T) {
	g := retailFlow()
	cat := retailCatalog()
	schema, err := g.schema(cat)
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	// The join of all three relations carries all seven columns.
	sink := g.Sinks()[0]
	got := schema[sink.ID]
	if len(got) != 7 {
		t.Fatalf("sink schema: got %d attrs (%v), want 7", len(got), got)
	}
	for _, want := range []Attr{{"Orders", "oid"}, {"Product", "price"}, {"Customer", "region"}} {
		if !attrIn(got, want) {
			t.Errorf("sink schema missing %s", want)
		}
	}
}

func TestSchemaUnknownAttr(t *testing.T) {
	b := NewBuilder("bad")
	o := b.Source("Orders")
	f := b.Select(o, Predicate{Attr: Attr{"Orders", "nope"}, Op: CmpEq, Const: 1})
	b.Sink(f, "t")
	_, err := b.Graph().schema(retailCatalog())
	if err == nil || !strings.Contains(err.Error(), "not in input schema") {
		t.Fatalf("Schema: want unknown-attr error, got %v", err)
	}
}

func TestPredicateMatches(t *testing.T) {
	cases := []struct {
		op   CmpOp
		c, v int64
		want bool
	}{
		{CmpEq, 5, 5, true}, {CmpEq, 5, 4, false},
		{CmpNe, 5, 4, true}, {CmpNe, 5, 5, false},
		{CmpLt, 5, 4, true}, {CmpLt, 5, 5, false},
		{CmpLe, 5, 5, true}, {CmpLe, 5, 6, false},
		{CmpGt, 5, 6, true}, {CmpGt, 5, 5, false},
		{CmpGe, 5, 5, true}, {CmpGe, 5, 4, false},
	}
	for _, tc := range cases {
		p := Predicate{Attr: Attr{"T", "a"}, Op: tc.op, Const: tc.c}
		if got := p.Matches(tc.v); got != tc.want {
			t.Errorf("(%v %s %d).Matches(%d) = %v, want %v", p.Attr, tc.op, tc.c, tc.v, got, tc.want)
		}
	}
}

func TestAttrsString(t *testing.T) {
	got := AttrsString([]Attr{{"B", "y"}, {"A", "x"}})
	if got != "A.x,B.y" {
		t.Fatalf("AttrsString = %q, want %q", got, "A.x,B.y")
	}
}

func TestCatalogDomain(t *testing.T) {
	cat := retailCatalog()
	d, err := cat.Domain(Attr{"Orders", "pid"})
	if err != nil || d != 500 {
		t.Fatalf("Domain(Orders.pid) = %d, %v; want 500, nil", d, err)
	}
	if _, err := cat.Domain(Attr{"Nope", "x"}); err == nil {
		t.Fatal("Domain(unknown rel): want error")
	}
	if _, err := cat.Domain(Attr{"Orders", "nope"}); err == nil {
		t.Fatal("Domain(unknown col): want error")
	}
	cat.AddDerived(Attr{"Xform", "c"}, 77)
	d, err = cat.Domain(Attr{"Xform", "c"})
	if err != nil || d != 77 {
		t.Fatalf("Domain(derived) = %d, %v; want 77, nil", d, err)
	}
}

func TestCatalogClone(t *testing.T) {
	cat := retailCatalog()
	cl := cat.clone()
	cl.AddDerived(Attr{"Orders", "extra"}, 9)
	if cat.Relation("Orders").Column("extra") != nil {
		t.Fatal("Clone: mutation leaked into original catalog")
	}
}

func TestCatalogDetermined(t *testing.T) {
	cat := retailCatalog()
	cat.FDs = append(cat.FDs, FD{Rel: "Orders", Determines: []string{"oid"}, Dependent: "pid"})
	if !cat.Determined([]Attr{{"Orders", "oid"}}, Attr{"Orders", "pid"}) {
		t.Fatal("Determined: oid→pid should hold")
	}
	if cat.Determined([]Attr{{"Orders", "cid"}}, Attr{"Orders", "pid"}) {
		t.Fatal("Determined: cid→pid should not hold")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	doc := &Document{Workflow: retailFlow(), Catalog: retailCatalog()}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	data := buf.Bytes()
	back, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.Workflow.Name != "retail" || len(back.Workflow.Nodes) != len(doc.Workflow.Nodes) {
		t.Fatalf("round trip lost nodes: got %d, want %d", len(back.Workflow.Nodes), len(doc.Workflow.Nodes))
	}
	if !strings.Contains(string(data), `"kind": "join"`) {
		t.Errorf("node kinds should serialize as names, got: %s", data)
	}
	an1, err := Analyze(doc.Workflow, doc.Catalog)
	if err != nil {
		t.Fatalf("Analyze original: %v", err)
	}
	an2, err := Analyze(back.Workflow, back.Catalog)
	if err != nil {
		t.Fatalf("Analyze round-tripped: %v", err)
	}
	if len(an1.Blocks) != len(an2.Blocks) {
		t.Fatalf("block count changed across round trip: %d vs %d", len(an1.Blocks), len(an2.Blocks))
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{`)); err == nil {
		t.Fatal("Decode(truncated): want error")
	}
	if _, err := Decode(strings.NewReader(`{"catalog":{"relations":[]}}`)); err == nil {
		t.Fatal("Decode(missing workflow): want error")
	}
	if _, err := Decode(strings.NewReader(`{"workflow":{"name":"x","nodes":[]}}`)); err == nil {
		t.Fatal("Decode(missing catalog): want error")
	}
}

func TestDOTRendering(t *testing.T) {
	g := retailFlow()
	cat := retailCatalog()
	an, err := Analyze(g, cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	dot := g.DOT(an)
	for _, want := range []string{"digraph", "cluster_block0", "source\\nOrders", "sink\\ndw", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Bare rendering (no analysis) also works and has no clusters.
	bare := g.DOT(nil)
	if strings.Contains(bare, "cluster") {
		t.Error("bare DOT should have no clusters")
	}
	// Deterministic output.
	if g.DOT(an) != dot {
		t.Error("DOT not deterministic")
	}
}

func TestValidateRejectsSelfJoin(t *testing.T) {
	b := NewBuilder("selfjoin")
	a1 := b.Source("T")
	a2 := b.Source("T")
	j := b.Join(a1, a2, Attr{"T", "a"}, Attr{"T", "a"})
	b.Sink(j, "out")
	err := b.Graph().validate()
	if err == nil || !strings.Contains(err.Error(), "self-join") {
		t.Fatalf("want self-join error, got %v", err)
	}
}
