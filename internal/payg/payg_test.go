package payg

import (
	"fmt"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestFormulaMinExecutions(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1},
		{5, 9},  // the paper's worked example: ⌈(32−7)/3⌉ = 9
		{6, 14}, // workflow 30 in the paper
		{8, 41}, // workflow 21 in the paper
	}
	for _, tc := range cases {
		if got := formulaMinExecutions(tc.n); got != tc.want {
			t.Errorf("FormulaMinExecutions(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// denseJoin builds an n-way join whose join graph is dense: relation i
// joins relation 0 and, additionally, each relation i joins i-1, so many
// subsets are connected.
func denseJoin(t *testing.T, n int) *css.Result {
	t.Helper()
	cat := &workflow.Catalog{}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("T%d", i)
		cat.Relations = append(cat.Relations, &workflow.Relation{
			Name: names[i], Card: 100,
			Columns: []workflow.Column{{Name: "k", Domain: 10}},
		})
	}
	b := workflow.NewBuilder(fmt.Sprintf("dense%d", n))
	nodes := make([]workflow.NodeID, n)
	for i := 0; i < n; i++ {
		nodes[i] = b.Source(names[i])
	}
	prev := nodes[0]
	for i := 1; i < n; i++ {
		prev = b.Join(prev, nodes[i], workflow.Attr{Rel: "T0", Col: "k"}, workflow.Attr{Rel: names[i], Col: "k"})
	}
	b.Sink(prev, "dw")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return res
}

func TestEvaluateCoversAllSEs(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6} {
		res := denseJoin(t, n)
		rep := Evaluate(res)
		if len(rep.PerBlock) != 1 {
			t.Fatalf("n=%d: blocks = %d", n, len(rep.PerBlock))
		}
		br := rep.PerBlock[0]
		// Replay the plan sequence and verify every coverable SE appears
		// as a prefix of some plan.
		sp := res.Space(0)
		blk := res.Analysis.Blocks[0]
		covered := make(map[expr.Set]bool)
		for _, tree := range br.Plans {
			markPrefixes(tree, covered)
		}
		for _, se := range sp.SEs {
			if se.Len() < 2 || se == sp.Full() {
				continue
			}
			if !covered[se] {
				t.Errorf("n=%d: SE %s not covered by the plan sequence", n, se.Label(blk))
			}
		}
		if br.Found < br.SemanticLB {
			t.Errorf("n=%d: found %d below semantic lower bound %d", n, br.Found, br.SemanticLB)
		}
	}
}

// markPrefixes records the internal SEs of a tree (all non-root internal
// nodes plus the root, harmlessly).
func markPrefixes(t *workflow.JoinTree, covered map[expr.Set]bool) {
	if t == nil || t.IsLeaf() {
		return
	}
	covered[expr.NewSet(t.Inputs()...)] = true
	markPrefixes(t.Left, covered)
	markPrefixes(t.Right, covered)
}

func TestEvaluateLinearFlowOneExecution(t *testing.T) {
	cat := &workflow.Catalog{Relations: []*workflow.Relation{
		{Name: "T", Card: 10, Columns: []workflow.Column{{Name: "a", Domain: 5}}},
	}}
	b := workflow.NewBuilder("linear")
	s := b.Source("T")
	f := b.Select(s, workflow.Predicate{Attr: workflow.Attr{Rel: "T", Col: "a"}, Op: workflow.CmpGt, Const: 1})
	b.Sink(f, "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	rep := Evaluate(res)
	if rep.Found != 1 || rep.FormulaLB != 1 || rep.SemanticLB != 1 {
		t.Fatalf("linear flow: %+v, want all 1", rep)
	}
}

func TestEvaluateGrowthWithWidth(t *testing.T) {
	// Executions must grow with join width for the baseline; the framework
	// needs just one (the contrast of Figure 12).
	prev := 0
	for _, n := range []int{4, 5, 6, 7} {
		rep := Evaluate(denseJoin(t, n))
		if rep.Found <= prev {
			t.Errorf("n=%d: found %d did not grow (prev %d)", n, rep.Found, prev)
		}
		prev = rep.Found
	}
}
