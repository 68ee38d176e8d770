package engine_test

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// A worker hands a block's output to the next block of its chain in the
// late form the block made it in, and the block that reads it names the
// source rows it read. These tests drive
// RunBlockCtx over the suite's workflows, which the engine's internal tests
// cannot import (the suite imports the engine).

// suiteEngine returns an engine over a suite workflow's data at scale.
func suiteEngine(t *testing.T, id int, scale float64) (*engine.Engine, engine.DB) {
	t.Helper()
	w := suite.MustGet(id)
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	db := w.Data(scale)
	return engine.New(an, db, nil), db
}

// TestHeldUpstreamNamesSources runs wf07's block 0 held, then block 1 on
// its late output: every column of block 1's output reads a source
// relation — Feed and Ref through block 0's indexes, Hist directly — and
// the block reports all three as read.
func TestHeldUpstreamNamesSources(t *testing.T) {
	e, _ := suiteEngine(t, 7, 0.01)
	ctx := context.Background()
	b0, err := e.RunBlockCtx(ctx, 0, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := e.RunBlockCtx(ctx, 1, nil, nil, nil, map[int]*data.Late{0: b0.Out})
	if err != nil {
		t.Fatal(err)
	}
	out := b1.Out
	if out == nil || out.N == 0 || len(out.Cols) != 10 {
		t.Fatalf("block 1's output: %+v, want 10 columns of rows", out)
	}
	for c, lc := range out.Cols {
		if lc.In < 0 {
			t.Errorf("column %d (%v) ships plain", c, out.Attrs[c])
		}
	}
	var named []string
	for _, in := range out.Ins {
		if !slices.Contains(named, in.Src.Rel) {
			named = append(named, in.Src.Rel)
		}
	}
	sort.Strings(named)
	var read []string
	for rel := range b1.Sources {
		read = append(read, rel)
	}
	sort.Strings(read)
	want := []string{"Feed", "Hist", "Ref"}
	if !reflect.DeepEqual(named, want) || !reflect.DeepEqual(read, want) {
		t.Errorf("block 1 names %v and reports reading %v, want %v for both", named, read, want)
	}
}

// TestHeldUpstreamRoundTrip runs every multi-block suite workflow at 0.002
// block by block, every upstream output held in its late form, and reads
// each block's tables that read one back through the late codec over the
// run's data: they equal the in-process run's, row for row. (wf10, wf16 and
// wf24 are left out as in the other full-suite sweeps.)
func TestHeldUpstreamRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	readBack := func(t *testing.T, l *data.Late, db engine.DB) *data.Table {
		t.Helper()
		var buf bytes.Buffer
		if err := data.WriteLate(&buf, l); err != nil {
			t.Fatal(err)
		}
		got, err := data.ReadLate(&buf, 1<<26, db)
		if err != nil {
			t.Fatal(err)
		}
		return got.Table()
	}
	composed := 0
	for _, w := range suite.All() {
		switch w.ID {
		case 10, 16, 24:
			continue
		}
		e, db := suiteEngine(t, w.ID, 0.002)
		if len(e.An.Blocks) < 2 {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			want, err := e.RunPlans(nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			held := make(map[int]*data.Late)
			for _, blk := range e.An.Blocks {
				up := make(map[int]*data.Late)
				for _, in := range blk.Inputs {
					if in.FromBlock >= 0 {
						up[in.FromBlock] = held[in.FromBlock]
					}
				}
				rb, err := e.RunBlockCtx(context.Background(), blk.Index, nil, nil, nil, up)
				if err != nil {
					t.Fatalf("block %d: %v", blk.Index, err)
				}
				held[blk.Index] = rb.Out
				if len(up) == 0 {
					continue
				}
				if got := readBack(t, rb.Out, db); !equalRows(got, want.BlockOut[blk.Index]) {
					t.Errorf("block %d: the output read back differs from the in-process run's", blk.Index)
				}
				for name, l := range rb.Materialized {
					if got := readBack(t, l, db); !equalRows(got, want.Materialized[name]) {
						t.Errorf("block %d: %s read back differs from the in-process run's", blk.Index, name)
					}
				}
				for _, in := range rb.Out.Ins {
					if _, ok := rb.Sources[in.Src.Rel]; !ok {
						t.Errorf("block %d names %s, which it does not report reading", blk.Index, in.Src.Rel)
					}
				}
				composed++
			}
		})
	}
	if composed == 0 {
		t.Error("no block read a held upstream output")
	}
}

// equalRows compares two tables' names, schemas and rows, in order; no rows
// and nil rows are equal.
func equalRows(a, b *data.Table) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rel != b.Rel || !reflect.DeepEqual(a.Attrs, b.Attrs) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !slices.Equal(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}
