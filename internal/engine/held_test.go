package engine_test

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// A worker runs a chain (engine.Chains) through RunChainCtx, which hands
// each block's output to the next block in the late form the block made it
// in, and the block that reads it names the source rows it read. These
// tests drive the runner over the suite's workflows, which the engine's
// internal tests cannot import (the suite imports the engine).

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

// TestHeldUpstreamNamesSources runs wf07's chain, block 0 then block 1 on
// block 0's late output: block 0's output stays inside the chain, every
// column of block 1's output reads a source relation — Feed and Ref
// through block 0's indexes, Hist directly — and block 1 reports all three
// as read.
func TestHeldUpstreamNamesSources(t *testing.T) {
	e, _ := suiteEngine(t, 7, 0.01)
	rbs, err := e.RunChainCtx(context.Background(), []int{0, 1}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rbs) != 2 || rbs[0].Out != nil {
		t.Fatalf("the chain returned %d outcome(s), block 0's output kept: %v", len(rbs), rbs[0].Out != nil)
	}
	b1 := rbs[1]
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

// TestHeldUpstreamRoundTrip runs every chain of every multi-block suite
// workflow at 0.002 through RunChainCtx, instrumented with every
// observable statistic, and the same blocks one by one: each block as the
// last of the chain's prefix that ends at it, its output kept. Block by
// block the chain's outcome equals the prefix's — rows, Sources, retries,
// statistics shard — and reports reading every relation its tables name,
// at the run's row counts; the prefix's output and each block's
// materialized tables, read back through the late codec over the run's
// data, equal the in-process run's row for row, and the shards merged are
// its store byte for byte. (wf10, wf16 and wf24 are left out as in the
// other full-suite sweeps.)
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
	storeBytes := func(t *testing.T, st *stats.Store) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ctx := context.Background()
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
			res, err := css.Generate(e.An, css.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			var observe []stats.Stat
			for id, ok := range res.Observable {
				if ok {
					observe = append(observe, res.Stats[id])
				}
			}
			want, err := e.RunPlans(nil, res, observe)
			if err != nil {
				t.Fatal(err)
			}
			merged := stats.NewStore()
			var rows int64
			ran := 0
			for _, chain := range engine.Chains(e.An) {
				rbs, err := e.RunChainCtx(ctx, chain, nil, res, observe)
				if err != nil || len(rbs) != len(chain) {
					t.Fatalf("chain %v: %d outcome(s), %v", chain, len(rbs), err)
				}
				for k, rb := range rbs {
					blk := chain[k]
					ones, err := e.RunChainCtx(ctx, chain[:k+1], nil, res, observe)
					if err != nil {
						t.Fatalf("chain %v: %v", chain[:k+1], err)
					}
					one := ones[k]
					if (rb.Out != nil) != (k == len(chain)-1) {
						t.Errorf("block %d of chain %v: output kept %v", blk, chain, rb.Out != nil)
					}
					if rb.Rows != one.Rows || rb.Retries != one.Retries || !reflect.DeepEqual(rb.Sources, one.Sources) ||
						!bytes.Equal(storeBytes(t, rb.Observed), storeBytes(t, one.Observed)) {
						t.Errorf("block %d: in chain %v it differs from its run as the last of %v", blk, chain, chain[:k+1])
					}
					if got := readBack(t, one.Out, db); !equalRows(got, want.BlockOut[blk]) {
						t.Errorf("block %d: the output read back differs from the in-process run's", blk)
					}
					for name, l := range rb.Materialized {
						if got := readBack(t, l, db); !equalRows(got, want.Materialized[name]) {
							t.Errorf("block %d: %s read back differs from the in-process run's", blk, name)
						}
					}
					tables := []*data.Late{one.Out}
					for _, l := range rb.Materialized {
						tables = append(tables, l)
					}
					for _, l := range tables {
						for _, in := range l.Ins {
							if n, ok := rb.Sources[in.Src.Rel]; !ok || n != len(db[in.Src.Rel].Rows) {
								t.Errorf("block %d names %s and reports reading %d of its %d rows (%v)", blk, in.Src.Rel, n, len(db[in.Src.Rel].Rows), ok)
							}
						}
					}
					merged.Merge(rb.Observed)
					rows += rb.Rows
					ran++
					if k > 0 {
						composed++
					}
				}
			}
			if ran != len(e.An.Blocks) {
				t.Fatalf("the chains ran %d of %d blocks", ran, len(e.An.Blocks))
			}
			if rows != want.Rows || !bytes.Equal(storeBytes(t, merged), storeBytes(t, want.Observed)) {
				t.Errorf("the chains ran %d rows and observed %d statistics; the in-process run %d and %d", rows, merged.Len(), want.Rows, want.Observed.Len())
			}
		})
	}
	if composed == 0 {
		t.Error("no block read an upstream output inside its chain")
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
