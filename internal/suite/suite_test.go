package suite

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func TestAllWorkflowsAnalyze(t *testing.T) {
	wfs := All()
	if len(wfs) != 30 {
		t.Fatalf("suite has %d workflows, want 30", len(wfs))
	}
	for _, w := range wfs {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			an, err := workflow.Analyze(w.Graph, w.Catalog)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if len(an.Blocks) == 0 {
				t.Fatal("no blocks")
			}
		})
	}
}

func TestAllWorkflowsGenerateAndSelect(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			an, err := workflow.Analyze(w.Graph, w.Catalog)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			for _, opt := range []css.Options{{}, css.DefaultOptions()} {
				res, err := css.Generate(an, opt)
				if err != nil {
					t.Fatalf("Generate(%+v): %v", opt, err)
				}
				if res.NumSEs() == 0 {
					t.Fatal("no SEs")
				}
				u, err := selector.NewUniverseOpts(res, costmodel.NewMemoryCoster(res, an.Cat), selector.UniverseOptions{})
				if err != nil {
					t.Fatalf("NewUniverseOpts(%+v): %v", opt, err)
				}
				sel, err := selector.SelectUniverse(u, selector.Options{Method: selector.MethodGreedy})
				if err != nil {
					t.Fatalf("Select(greedy, %+v): %v", opt, err)
				}
				if len(sel.Observe) == 0 {
					t.Fatal("empty selection")
				}
			}
		})
	}
}

func TestWorkflowDeterminism(t *testing.T) {
	a := MustGet(21)
	b := MustGet(21)
	if len(a.Graph.Nodes) != len(b.Graph.Nodes) {
		t.Fatal("nondeterministic graph construction")
	}
	da := a.Data(0.01)
	db := b.Data(0.01)
	for rel, ta := range da {
		tb := db[rel]
		if tb == nil || ta.Card() != tb.Card() {
			t.Fatalf("nondeterministic data for %s", rel)
		}
		for i := range ta.Rows {
			for j := range ta.Rows[i] {
				if ta.Rows[i][j] != tb.Rows[i][j] {
					t.Fatalf("row mismatch in %s", rel)
				}
			}
		}
	}
}

func TestAnecdoteShapes(t *testing.T) {
	// wf21 is the widest join in the suite (8 inputs in one block).
	w21 := MustGet(21)
	an21, err := workflow.Analyze(w21.Graph, w21.Catalog)
	if err != nil {
		t.Fatalf("Analyze(21): %v", err)
	}
	max21 := 0
	for _, b := range an21.Blocks {
		if b.NumInputs() > max21 {
			max21 = b.NumInputs()
		}
	}
	if max21 != 8 {
		t.Fatalf("wf21 widest block = %d inputs, want 8", max21)
	}
	// wf30 has a 6-input block.
	w30 := MustGet(30)
	an30, err := workflow.Analyze(w30.Graph, w30.Catalog)
	if err != nil {
		t.Fatalf("Analyze(30): %v", err)
	}
	max30 := 0
	for _, b := range an30.Blocks {
		if b.NumInputs() > max30 {
			max30 = b.NumInputs()
		}
	}
	if max30 != 6 {
		t.Fatalf("wf30 widest block = %d inputs, want 6", max30)
	}
	// wf08 (Figure 3) has three blocks.
	w8 := MustGet(8)
	an8, err := workflow.Analyze(w8.Graph, w8.Catalog)
	if err != nil {
		t.Fatalf("Analyze(8): %v", err)
	}
	if len(an8.Blocks) != 3 {
		t.Fatalf("wf08 has %d blocks, want 3", len(an8.Blocks))
	}
	// wf01 and wf02 are linear: exactly one plan each.
	for _, id := range []int{1, 2} {
		w := MustGet(id)
		an, err := workflow.Analyze(w.Graph, w.Catalog)
		if err != nil {
			t.Fatalf("Analyze(%d): %v", id, err)
		}
		for _, b := range an.Blocks {
			if len(b.Joins) != 0 {
				t.Errorf("wf%02d should be join-free", id)
			}
		}
	}
}

func TestGetOutOfRange(t *testing.T) {
	for _, id := range []int{0, -1, 31, 100} {
		w, err := Get(id)
		if w != nil || err == nil {
			t.Fatalf("Get(%d) = %v, %v; want nil, error", id, w, err)
		}
		var ue *UnknownWorkflowError
		if !errors.As(err, &ue) || ue.ID != id {
			t.Fatalf("Get(%d) error = %v; want *UnknownWorkflowError", id, err)
		}
		if !strings.Contains(err.Error(), "1..30") {
			t.Fatalf("Get(%d) error %q does not name the valid range", id, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet(31) should panic")
		}
	}()
	MustGet(31)
}

func TestSuiteJSONRoundTrip(t *testing.T) {
	// Every suite workflow must survive the interchange format and analyze
	// to the same block structure afterwards.
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			doc := &workflow.Document{Workflow: w.Graph, Catalog: w.Catalog}
			var buf bytes.Buffer
			if err := doc.Encode(&buf); err != nil {
				t.Fatalf("Encode: %v", err)
			}
			back, err := workflow.Decode(&buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			an1, err := workflow.Analyze(w.Graph, w.Catalog)
			if err != nil {
				t.Fatalf("Analyze original: %v", err)
			}
			an2, err := workflow.Analyze(back.Workflow, back.Catalog)
			if err != nil {
				t.Fatalf("Analyze round-tripped: %v", err)
			}
			if len(an1.Blocks) != len(an2.Blocks) {
				t.Fatalf("blocks changed: %d vs %d", len(an1.Blocks), len(an2.Blocks))
			}
			for i := range an1.Blocks {
				if len(an1.Blocks[i].Inputs) != len(an2.Blocks[i].Inputs) ||
					len(an1.Blocks[i].Joins) != len(an2.Blocks[i].Joins) {
					t.Fatalf("block %d structure changed", i)
				}
			}
		})
	}
}

// TestSuiteGoldenStructure pins each workflow's analyzed shape: block
// count, widest join, and total join edges. Any unintended change to the
// suite (which every figure depends on) fails here first.
func TestSuiteGoldenStructure(t *testing.T) {
	type shape struct{ blocks, widest, joins int }
	golden := map[int]shape{}
	for _, w := range All() {
		an, err := workflow.Analyze(w.Graph, w.Catalog)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		s := shape{blocks: len(an.Blocks)}
		for _, b := range an.Blocks {
			if b.NumInputs() > s.widest {
				s.widest = b.NumInputs()
			}
			s.joins += len(b.Joins)
		}
		golden[w.ID] = s
	}
	want := map[int]shape{
		1: {1, 1, 0}, 2: {1, 1, 0}, 3: {1, 3, 2}, 4: {1, 4, 3}, 5: {1, 4, 3},
		6: {2, 2, 2}, 7: {2, 2, 2}, 8: {3, 2, 3}, 9: {1, 5, 4}, 10: {1, 5, 4},
		11: {1, 3, 2}, 12: {1, 6, 5}, 13: {2, 2, 2}, 14: {2, 2, 2}, 15: {2, 3, 3},
		16: {1, 6, 5}, 17: {1, 5, 4}, 18: {2, 4, 4}, 19: {1, 6, 5}, 20: {1, 7, 6},
		21: {1, 8, 7}, 22: {1, 5, 4}, 23: {1, 3, 2}, 24: {3, 4, 5}, 25: {2, 4, 5},
		26: {1, 7, 6}, 27: {1, 5, 4}, 28: {1, 6, 5}, 29: {2, 6, 6}, 30: {1, 6, 5},
	}
	for id, g := range golden {
		w, ok := want[id]
		if !ok {
			t.Errorf("wf%02d: no golden shape recorded: %+v", id, g)
			continue
		}
		if g != w {
			t.Errorf("wf%02d: shape %+v, golden %+v", id, g, w)
		}
	}
}
