package engine

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Regression test for the group-by allocation bug: deduplication once
// allocated a key per input row, so grouping N rows cost at least N
// allocations however few distinct keys existed, and a string-keyed set
// still allocated one key per distinct group. keySet lives in the block's
// arena, so a whole group-by run — compile, scan, dedup, materialized
// output — must stay far below one allocation per input row, and, with
// every key distinct, far below one per group.

const (
	allocRows     = 8192
	allocDistinct = 32
)

// allocTable builds an allocRows-row table whose column i holds row % mods[i]
// (a mod of 0 holds the row number).
func allocTable(rel string, cols []string, mods []int, rows int) (*data.Table, *workflow.Relation) {
	tbl := &data.Table{Rel: rel}
	r := &workflow.Relation{Name: rel, Card: int64(rows)}
	for i, c := range cols {
		tbl.Attrs = append(tbl.Attrs, workflow.Attr{Rel: rel, Col: c})
		dom := mods[i]
		if dom == 0 {
			dom = rows
		}
		r.Columns = append(r.Columns, workflow.Column{Name: c, Domain: int64(dom)})
	}
	for i := 0; i < rows; i++ {
		row := make(data.Row, len(cols))
		for c, m := range mods {
			row[c] = int64(i)
			if m > 0 {
				row[c] = int64(i % m)
			}
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, r
}

func TestGroupByAllocsBatch(t *testing.T) {
	tbl, rel := allocTable("G", []string{"a", "b", "c"}, []int{allocDistinct, 4, 0}, allocRows)
	for _, tc := range []struct {
		name      string
		keys      []string
		groups    int64
		maxAllocs float64
	}{
		{"few groups", []string{"a", "b"}, allocDistinct, allocRows / 8},
		{"all distinct", []string{"c"}, allocRows, 128},
	} {
		b := workflow.NewBuilder("groupby-allocs")
		var keys []workflow.Attr
		for _, c := range tc.keys {
			keys = append(keys, workflow.Attr{Rel: "G", Col: c})
		}
		b.Sink(b.GroupBy(b.Source("G"), keys...), "out")
		an, err := workflow.Analyze(b.Graph(), &workflow.Catalog{Relations: []*workflow.Relation{rel}})
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		e := New(an, DB{"G": tbl}, nil)
		allocs := testing.AllocsPerRun(5, func() {
			res, err := e.RunPlans(nil, nil, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := res.Sinks["out"].Card(); got != tc.groups {
				t.Fatalf("%s: groups = %d, want %d", tc.name, got, tc.groups)
			}
		})
		t.Logf("%s: %.0f allocations grouping %d rows into %d groups", tc.name, allocs, allocRows, tc.groups)
		if allocs > tc.maxAllocs {
			t.Errorf("%s: batch group-by run allocates %.0f over %d rows into %d groups, over the bound %.0f", tc.name, allocs, allocRows, tc.groups, tc.maxAllocs)
		}
	}
}

// TestInstrumentedRunAllocs pins what one instrumented run of the block
// interpreter allocates, without a clock: a fact table of allocRows rows
// probes two dimensions, a group-by closes the block, and every observable
// statistic is tapped. It is core.alloc_mb_cycle's tier-1 twin — the
// noise-free number a chunked or column-major interpreter (ROADMAP item 3)
// has to beat. The pins are measured values (go1.24.0 on amd64); the bound
// leaves a quarter for Go-release drift. The sink leaves in late form, and
// its rows are built from that: the late table, its read's index vector and
// its two plain columns, the row kernel's lists and the scheduler's held
// map are 14 allocations of the pins.
func TestInstrumentedRunAllocs(t *testing.T) {
	if RaceDetector {
		t.Skip("pooled arenas are dropped at random under -race; the plain test job pins this")
	}
	const (
		pinnedBytes  = 50_416
		pinnedAllocs = 463
	)
	fact, fr := allocTable("F", []string{"k1", "k2", "v"}, []int{64, 32, 0}, allocRows)
	d1, r1 := allocTable("D1", []string{"k1", "a"}, []int{0, 8}, 64)
	d2, r2 := allocTable("D2", []string{"k2", "b"}, []int{0, 4}, 32)
	b := workflow.NewBuilder("instrumented-allocs")
	j1 := b.Join(b.Source("F"), b.Source("D1"), workflow.Attr{Rel: "F", Col: "k1"}, workflow.Attr{Rel: "D1", Col: "k1"})
	j2 := b.Join(j1, b.Source("D2"), workflow.Attr{Rel: "F", Col: "k2"}, workflow.Attr{Rel: "D2", Col: "k2"})
	b.Sink(b.GroupBy(j2, workflow.Attr{Rel: "D1", Col: "a"}, workflow.Attr{Rel: "D2", Col: "b"}), "out")
	an, err := workflow.Analyze(b.Graph(), &workflow.Catalog{Relations: []*workflow.Relation{fr, r1, r2}})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	observe := observableStats(res)
	e := New(an, DB{"F": fact, "D1": d1, "D2": d2}, nil)
	run := func() {
		out, err := e.RunPlans(nil, res, observe)
		if err != nil {
			t.Fatalf("RunPlans: %v", err)
		}
		if out.Rows < 2*allocRows || out.Observed.Len() == 0 {
			t.Fatalf("run moved %d rows and observed %d statistics", out.Rows, out.Observed.Len())
		}
	}
	// One goroutine and no collection while measuring: the pooled arena
	// survives from the warm-up run, so every measured run allocates the
	// same.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("one instrumented run over %d probe rows (%d statistics): %d bytes in %d allocations (pinned %d / %d)",
		allocRows, len(observe), bytes, allocs, pinnedBytes, pinnedAllocs)
	if bytes > pinnedBytes*5/4 {
		t.Errorf("allocated %d bytes a run, over 1.25 x the pinned %d", bytes, pinnedBytes)
	}
	if allocs > pinnedAllocs*5/4 {
		t.Errorf("made %d allocations a run, over 1.25 x the pinned %d", allocs, pinnedAllocs)
	}
}
