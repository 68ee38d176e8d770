package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/wftest"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// TestParallelMatchesSequentialRetail is the cheap smoke check: the retail
// workflow at Workers=4 must match Workers=1.
func TestParallelMatchesSequentialRetail(t *testing.T) {
	db, cat := tinyDB()
	an, err := workflow.Analyze(retailGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	observe := observableStats(res)

	seqBatch, err := New(an, db, nil).RunPlans(nil, res, observe)
	if err != nil {
		t.Fatalf("sequential batch: %v", err)
	}
	parBatch := New(an, db, nil)
	parBatch.Workers = 4
	outB, err := parBatch.RunPlans(nil, res, observe)
	if err != nil {
		t.Fatalf("parallel batch: %v", err)
	}
	equalResults(t, "batch", seqBatch, outB)
}

// TestParallelMatchesSequentialFuzz is the harsh version of the check:
// random workflows (including multi-block ones with reject links and
// chains), observing everything observable, at several worker counts.
func TestParallelMatchesSequentialFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign skipped in -short mode")
	}
	for seed := int64(300); seed < 312; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, cat, db := wftest.Generate(seed, wftest.Options{MaxCard: 90})
			an, err := workflow.Analyze(g, cat)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			res, err := css.Generate(an, css.DefaultOptions())
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			observe := observableStats(res)

			seqBatch, err := New(an, db, nil).RunPlans(nil, res, observe)
			if err != nil {
				t.Fatalf("sequential batch: %v", err)
			}
			for _, w := range []int{2, 4} {
				eb := New(an, db, nil)
				eb.Workers = w
				outB, err := eb.RunPlans(nil, res, observe)
				if err != nil {
					t.Fatalf("batch workers=%d: %v", w, err)
				}
				equalResults(t, fmt.Sprintf("batch workers=%d", w), seqBatch, outB)
			}
		})
	}
}

// multiBlockGraph builds a workflow whose analysis yields a block DAG with
// genuine parallelism: two independent source branches, each closed by a
// GroupBy (a block boundary), joined in a final block.
func multiBlockGraph() *workflow.Graph {
	b := workflow.NewBuilder("diamond")
	o := b.Source("Orders")
	g1 := b.GroupBy(o, workflow.Attr{Rel: "Orders", Col: "cid"})
	c := b.Source("Customer")
	g2 := b.GroupBy(c, workflow.Attr{Rel: "Customer", Col: "cid"})
	j := b.Join(g1, g2, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j, "out")
	return b.Graph()
}

// TestBlockDAGParallel checks the inter-block scheduler on a workflow whose
// first two blocks are mutually independent.
func TestBlockDAGParallel(t *testing.T) {
	db, cat := tinyDB()
	an, err := workflow.Analyze(multiBlockGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Blocks) < 3 {
		t.Fatalf("want a multi-block analysis, got %d blocks", len(an.Blocks))
	}
	deps := blockDeps(an)
	independent := 0
	for _, blk := range an.Blocks {
		if len(deps[blk.Index]) == 0 {
			independent++
		}
	}
	if independent < 2 {
		t.Fatalf("want >= 2 independent blocks, got %d", independent)
	}
	seq, err := New(an, db, nil).RunPlans(nil, nil, nil)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, w := range []int{2, 4} {
		e := New(an, db, nil)
		e.Workers = w
		out, err := e.RunPlans(nil, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		equalResults(t, fmt.Sprintf("dag workers=%d", w), seq, out)
	}
}

// TestParallelErrorDeterministic: when several blocks fail, the reported
// error must be the lowest-index block's, independent of completion order.
func TestParallelErrorDeterministic(t *testing.T) {
	db, cat := tinyDB()
	delete(db, "Orders")
	delete(db, "Customer")
	an, err := workflow.Analyze(multiBlockGraph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var first string
	for trial := 0; trial < 8; trial++ {
		e := New(an, db, nil)
		e.Workers = 4
		_, err := e.RunPlans(nil, nil, nil)
		if err == nil {
			t.Fatal("want error for missing relations")
		}
		if trial == 0 {
			first = err.Error()
			continue
		}
		if err.Error() != first {
			t.Fatalf("error varies across runs: %q vs %q", first, err.Error())
		}
	}
}

// TestSchedHoldsOnlyReadOutputs runs the diamond's blocks through the
// scheduler in-process, at one slot and at four: the late forms it keeps
// are the two group-bys' the join reads, and not the join's, which only a
// sink reads; every block's rows are committed.
func TestSchedHoldsOnlyReadOutputs(t *testing.T) {
	f := newMultiBlockFixture(t)
	plan, err := physical.Compile(f.an, f.db, physical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deps := blockDeps(f.an)
	var want []int
	for _, d := range deps {
		want = append(want, d...)
	}
	slices.Sort(want)
	if want = slices.Compact(want); len(want) == 0 || len(want) == len(plan.Blocks) {
		t.Fatalf("blocks %v are read, of %d: want some and not all", want, len(plan.Blocks))
	}
	for _, workers := range []int{1, 4} {
		e := f.engine(nil)
		e.Workers = workers
		out := &Result{BlockOut: map[int]*data.Table{}, Materialized: map[string]*data.Table{}}
		s := e.newBlockSched(plan, newRunEnv(context.Background(), nil, nil), out, nil)
		s.work(nil)
		if len(s.errs) > 0 || len(out.BlockOut) != len(plan.Blocks) {
			t.Fatalf("%d worker(s): errors %v, %d of %d blocks committed", workers, s.errs, len(out.BlockOut), len(plan.Blocks))
		}
		var got []int
		for idx := range s.held {
			got = append(got, idx)
		}
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Errorf("%d worker(s): the scheduler keeps the late form of blocks %v, want %v, the blocks a later block reads", workers, got, want)
		}
		for idx, l := range s.held {
			if l == nil || out.BlockOut[idx] == nil {
				t.Errorf("%d worker(s): block %d is held as %v with rows %v", workers, idx, l, out.BlockOut[idx])
			}
		}
	}
}
