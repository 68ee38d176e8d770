package engine

import (
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Regression tests for the group-by allocation bug: deduplication once
// allocated a key per input row, so grouping N rows cost at least N
// allocations however few distinct keys existed. keySet's guarded insert
// allocates on first-seen keys only, so a whole group-by run — compile,
// scan, dedup, materialized output — must stay far below one allocation
// per input row under either strategy.

const (
	allocRows     = 8192
	allocDistinct = 32
)

// groupByAllocs runs a group-by of allocRows rows into allocDistinct groups
// and returns the allocations of one whole engine run.
func groupByAllocs(t *testing.T, mk func(*workflow.Analysis, DB, Registry) *Engine) float64 {
	t.Helper()
	tbl := &data.Table{Rel: "G", Attrs: []workflow.Attr{{Rel: "G", Col: "a"}, {Rel: "G", Col: "b"}, {Rel: "G", Col: "c"}}}
	for i := 0; i < allocRows; i++ {
		tbl.Rows = append(tbl.Rows, data.Row{int64(i % allocDistinct), int64(i % 4), int64(i)})
	}
	cat := &workflow.Catalog{Relations: []*workflow.Relation{{Name: "G", Card: allocRows, Columns: []workflow.Column{
		{Name: "a", Domain: allocDistinct}, {Name: "b", Domain: 4}, {Name: "c", Domain: allocRows},
	}}}}
	b := workflow.NewBuilder("groupby-allocs")
	b.Sink(b.GroupBy(b.Source("G"), workflow.Attr{Rel: "G", Col: "a"}, workflow.Attr{Rel: "G", Col: "b"}), "out")
	an, err := workflow.Analyze(b.Graph(), cat)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	e := mk(an, DB{"G": tbl}, nil)
	return testing.AllocsPerRun(5, func() {
		res, err := e.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := res.Sinks["out"].Card(); got != allocDistinct {
			t.Fatalf("groups = %d, want %d", got, allocDistinct)
		}
	})
}

func TestGroupByAllocsBatch(t *testing.T) {
	if allocs := groupByAllocs(t, New); allocs > allocRows/8 {
		t.Fatalf("batch group-by run allocates %.0f over %d rows; scaling with rows, not groups", allocs, allocRows)
	}
}

func TestGroupByAllocsStream(t *testing.T) {
	if allocs := groupByAllocs(t, NewStream); allocs > allocRows/8 {
		t.Fatalf("stream group-by run allocates %.0f over %d rows; scaling with rows, not groups", allocs, allocRows)
	}
}
