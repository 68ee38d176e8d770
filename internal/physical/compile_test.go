package physical_test

import (
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// compileSuite compiles one suite workflow's physical plan instrumented
// with every observable statistic.
func compileSuite(t *testing.T, id int) (*physical.Plan, *css.Result) {
	t.Helper()
	w := suite.MustGet(id)
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	plan, err := physical.Compile(an, w.Data(0.002), physical.Options{
		Res: res, Observe: observableStats(res),
	})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return plan, res
}

// TestCompileDeterministic pins the explain contract: compiling the same
// workflow twice renders the identical plan, for every suite workflow.
func TestCompileDeterministic(t *testing.T) {
	for _, w := range suite.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a, _ := compileSuite(t, w.ID)
			b, _ := compileSuite(t, w.ID)
			if a.String() != b.String() {
				t.Errorf("nondeterministic plan rendering:\n%s\nvs\n%s", a, b)
			}
			if a.String() == "" {
				t.Error("empty plan rendering")
			}
		})
	}
}

// TestCompileStructure checks the structural invariants every executor
// relies on: topological node order, schema composition at joins, chain
// bookkeeping, and single attachment per observed statistic.
func TestCompileStructure(t *testing.T) {
	for _, w := range suite.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			plan, _ := compileSuite(t, w.ID)
			seen := map[stats.Key]string{} // stat key → node label
			for _, bp := range plan.Blocks {
				blk := bp.Block
				if len(bp.Chains) != len(blk.Inputs) {
					t.Fatalf("block %d: %d chains for %d inputs", blk.Index, len(bp.Chains), len(blk.Inputs))
				}
				for i, ch := range bp.Chains {
					if len(ch) != len(blk.Inputs[i].Ops)+1 {
						t.Errorf("block %d input %d: chain length %d, want %d",
							blk.Index, i, len(ch), len(blk.Inputs[i].Ops)+1)
					}
					// The logical Attrs list is an availability set; the
					// physical schema must stay within it.
					end := ch[len(ch)-1]
					if len(end.Attrs) == 0 || !subsetOf(end.Attrs, blk.Inputs[i].Attrs) {
						t.Errorf("block %d input %d: cooked schema %v escapes %v",
							blk.Index, i, end.Attrs, blk.Inputs[i].Attrs)
					}
				}
				if len(bp.Root.Attrs) == 0 || !subsetOf(bp.Root.Attrs, blk.OutAttrs) {
					t.Errorf("block %d: root schema %v escapes %v", blk.Index, bp.Root.Attrs, blk.OutAttrs)
				}
				for pos, n := range bp.Nodes {
					if n.ID != pos {
						t.Fatalf("block %d: node %q has ID %d at position %d", blk.Index, n.Label, n.ID, pos)
					}
					if n.Input != nil && n.Input.ID >= n.ID {
						t.Errorf("block %d: node %q consumes later node", blk.Index, n.Label)
					}
					if n.Kind == physical.OpHashJoin {
						if n.Left.ID >= n.ID || n.Right.ID >= n.ID {
							t.Errorf("block %d: join %q consumes later node", blk.Index, n.Label)
						}
						if len(n.Attrs) != len(n.Left.Attrs)+len(n.Right.Attrs) {
							t.Errorf("block %d: join %q schema arity %d, want %d",
								blk.Index, n.Label, len(n.Attrs), len(n.Left.Attrs)+len(n.Right.Attrs))
						}
						if n.LeftCol < 0 || n.LeftCol >= len(n.Left.Attrs) ||
							n.RightCol < 0 || n.RightCol >= len(n.Right.Attrs) {
							t.Errorf("block %d: join %q columns out of range", blk.Index, n.Label)
						}
					}
					for _, tap := range n.Taps {
						key := tap.Stat.Key()
						if prev, dup := seen[key]; dup {
							t.Errorf("block %d: statistic %v attached at both %q and %q",
								blk.Index, key, prev, n.Label)
						}
						seen[key] = n.Label
						for _, c := range tap.Cols {
							if c < 0 || c >= len(n.Attrs) {
								t.Errorf("block %d: tap %v column %d outside schema of %q",
									blk.Index, key, c, n.Label)
							}
						}
					}
				}
			}
			if len(seen) == 0 {
				t.Error("no taps attached anywhere")
			}
		})
	}
}

// subsetOf reports whether every attribute in got also appears in allowed.
func subsetOf(got, allowed []workflow.Attr) bool {
	set := map[workflow.Attr]bool{}
	for _, a := range allowed {
		set[a] = true
	}
	for _, a := range got {
		if !set[a] {
			return false
		}
	}
	return true
}

// TestCompileTapCoverage checks that every statistic an instrumented run is
// expected to collect (the old engines' contract) is wired somewhere in the
// plan: as a node tap, a reject singleton, or an auxiliary join.
func TestCompileTapCoverage(t *testing.T) {
	plan, res := compileSuite(t, 5) // wf05 exercises SE, chain and reject taps
	attached := map[stats.Key]bool{}
	for _, bp := range plan.Blocks {
		for _, n := range bp.Nodes {
			for _, tap := range n.Taps {
				attached[tap.Stat.Key()] = true
			}
			for _, rt := range []*physical.RejectTaps{n.LeftReject, n.RightReject} {
				if rt == nil {
					continue
				}
				for _, tap := range rt.Singles {
					attached[tap.Stat.Key()] = true
				}
				for _, aj := range rt.Aux {
					attached[aj.Stat.Key()] = true
				}
			}
		}
	}
	for _, s := range observableStats(res) {
		if !attached[s.Key()] {
			t.Errorf("observable statistic %v not attached anywhere", s.Key())
		}
	}
}

// TestExplainRendering spot-checks the printed plan: tap lines carry the
// paper's statistic notation and join nodes reference both children.
func TestExplainRendering(t *testing.T) {
	plan, _ := compileSuite(t, 3)
	out := plan.String()
	for _, want := range []string{"block 0:", "scan T1", "join ", "tap ", "⋈", "root "} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering misses %q:\n%s", want, out)
		}
	}
}

// observableStats returns every statistic the initial plan can observe, in
// canonical order.
func observableStats(res *css.Result) []stats.Stat {
	var out []stats.Stat
	for id, ok := range res.Observable {
		if ok {
			out = append(out, res.Stats[id])
		}
	}
	return out
}
