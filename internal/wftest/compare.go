package wftest

import (
	"slices"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Golden is a Result prepared as the reference side of many comparisons:
// every table's rows are sorted once, here, instead of once per comparison.
type Golden struct {
	// Ref is the reference result as given.
	Ref *Result

	sinks, materialized map[string][]data.Row
}

// NewGolden sorts the reference result's tables.
func NewGolden(ref *Result) *Golden {
	g := &Golden{
		Ref:          ref,
		sinks:        make(map[string][]data.Row, len(ref.Sinks)),
		materialized: make(map[string][]data.Row, len(ref.Materialized)),
	}
	for name, tbl := range ref.Sinks {
		g.sinks[name] = sortedRows(tbl)
	}
	for name, tbl := range ref.Materialized {
		g.materialized[name] = sortedRows(tbl)
	}
	return g
}

// Diff reports, through t.Errorf, every way got is externally different
// from the reference: sinks and materialized tables as exact row multisets
// (row order within a table is not part of the contract — the parallel
// probe cascade interleaves partitions), the work metric, and the observed
// statistics value by value.
func (g *Golden) Diff(t testing.TB, label string, got *Result) {
	t.Helper()
	diffTables(t, label, "sink", g.sinks, got.Sinks)
	diffTables(t, label, "materialized", g.materialized, got.Materialized)
	if got.Rows != g.Ref.Rows {
		t.Errorf("%s: work metric %d, want %d", label, got.Rows, g.Ref.Rows)
	}
	DiffStores(t, label, g.Ref.Observed, got.Observed)
}

func diffTables(t testing.TB, label, kind string, ref map[string][]data.Row, got map[string]*data.Table) {
	t.Helper()
	if len(got) != len(ref) {
		t.Errorf("%s: %s count %d, want %d", label, kind, len(got), len(ref))
	}
	for name, rows := range ref {
		tbl := got[name]
		if tbl == nil || !slices.EqualFunc(rows, sortedRows(tbl), func(a, b data.Row) bool { return slices.Equal(a, b) }) {
			t.Errorf("%s: %s %q differs", label, kind, name)
		}
	}
}

// sortedRows returns the table's rows in integer lexicographic order. Only
// the outer slice is new; the table is left as it was.
func sortedRows(tbl *data.Table) []data.Row {
	rows := slices.Clone(tbl.Rows)
	slices.SortFunc(rows, func(a, b data.Row) int { return slices.Compare(a, b) })
	return rows
}

// DiffStores compares two observation stores value by value, reporting
// every difference through t.Errorf.
func DiffStores(t testing.TB, label string, ref, got *stats.Store) {
	t.Helper()
	if (ref == nil) != (got == nil) {
		t.Errorf("%s: one result has no observations", label)
		return
	}
	if ref == nil {
		return
	}
	if got.Len() != ref.Len() {
		t.Errorf("%s: store sizes differ: %d vs %d", label, got.Len(), ref.Len())
	}
	for _, v := range ref.Values() {
		g, ok := got.Get(v.Stat)
		if !ok {
			t.Errorf("%s: %v missing", label, v.Stat.Key())
			continue
		}
		switch {
		case v.Hist != nil:
			h := g.Hist
			if h.Buckets() != v.Hist.Buckets() || h.Total() != v.Hist.Total() {
				t.Errorf("%s: hist %v differs", label, v.Stat.Key())
				continue
			}
			same := true
			v.Hist.Each(func(vals []int64, f int64) {
				if h.Freq(vals...) != f {
					same = false
				}
			})
			if !same {
				t.Errorf("%s: hist %v bucket mismatch", label, v.Stat.Key())
			}
		default:
			if g.Scalar != v.Scalar {
				t.Errorf("%s: scalar %v = %d, want %d", label, v.Stat.Key(), g.Scalar, v.Scalar)
			}
		}
	}
}
