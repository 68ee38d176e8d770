package batch

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/mix"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func testTable(rows ...[]int64) *data.Table {
	t := &data.Table{Rel: "T", Attrs: []workflow.Attr{{Rel: "T", Col: "a"}, {Rel: "T", Col: "b"}}}
	for _, r := range rows {
		t.Rows = append(t.Rows, data.Row(r))
	}
	return t
}

// rowsOf returns b's live rows, each column read through Reads: the index
// vectors a block boundary's late form leaves with.
func rowsOf(b *Batch) [][]int64 {
	rows := make([][]int64, b.Rows())
	for i := range rows {
		rows[i] = make([]int64, len(b.Cols))
	}
	for _, rd := range b.Reads() {
		for _, c := range rd.Cols {
			for i, r := range rd.Idx {
				rows[i][c] = b.Cols[c][r]
			}
		}
	}
	return rows
}

func TestFromTableRoundTrip(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	tbl := testTable([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	b, err := FromTable(tbl, a)
	if err != nil {
		t.Fatalf("FromTable: %v", err)
	}
	if b.Rows() != 3 || len(b.Cols) != 2 {
		t.Fatalf("batch shape %dx%d, want 3x2", b.Rows(), len(b.Cols))
	}
	back := rowsOf(b)
	if len(back) != 3 {
		t.Fatalf("round trip rows = %d, want 3", len(back))
	}
	for i, r := range back {
		for c, v := range r {
			if v != tbl.Rows[i][c] {
				t.Fatalf("round trip [%d][%d] = %d, want %d", i, c, v, tbl.Rows[i][c])
			}
		}
	}
}

func TestSelectionSemantics(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	tbl := testTable([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{2, 40})
	b, _ := FromTable(tbl, a)

	// a == 2 selects physical rows 1 and 3.
	sel := SelectPred(b.Cols[0], nil, b.N, workflow.CmpEq, 2, a.Int32(b.Rows()))
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 3 {
		t.Fatalf("sel = %v, want [1 3]", sel)
	}
	filtered := &Batch{Cols: b.Cols, N: b.N, Sel: sel}
	if filtered.Rows() != 2 {
		t.Fatalf("filtered rows = %d, want 2", filtered.Rows())
	}
	// Chained predicate over the selection: b >= 40 keeps only row 3.
	sel2 := SelectPred(b.Cols[1], sel, b.N, workflow.CmpGe, 40, a.Int32(filtered.Rows()))
	if len(sel2) != 1 || sel2[0] != 3 {
		t.Fatalf("chained sel = %v, want [3]", sel2)
	}
	// Materializing honors the selection in order.
	out := rowsOf(&Batch{Cols: b.Cols, N: b.N, Sel: sel})
	if len(out) != 2 || out[0][1] != 20 || out[1][1] != 40 {
		t.Fatalf("materialized selection = %v", out)
	}
}

// A filter that keeps nothing leaves an empty selection, and a filter over
// that keeps nothing either: an empty vector from the arena is not nil,
// which would mean every row is live.
func TestEmptySelectionStaysEmpty(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	col := []int64{1, 2, 3}
	none := SelectPred(col, nil, len(col), workflow.CmpGt, 9, a.Int32(len(col)))
	again := SelectPred(col, none, len(col), workflow.CmpGt, 0, a.Int32(len(none)))
	if b := (&Batch{Cols: [][]int64{col}, N: len(col), Sel: again}); again == nil || b.Rows() != 0 {
		t.Fatalf("filter over an empty selection: sel %v, %d live rows, want an empty selection", again, b.Rows())
	}
}

func TestSelectPredOps(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	col := []int64{1, 2, 3, 4, 5}
	cases := []struct {
		op   workflow.CmpOp
		c    int64
		want int
	}{
		{workflow.CmpEq, 3, 1}, {workflow.CmpNe, 3, 4},
		{workflow.CmpLt, 3, 2}, {workflow.CmpLe, 3, 3},
		{workflow.CmpGt, 3, 2}, {workflow.CmpGe, 3, 3},
	}
	for _, tc := range cases {
		got := SelectPred(col, nil, len(col), tc.op, tc.c, a.Int32(len(col)))
		if len(got) != tc.want {
			t.Errorf("op %v const %d: %d rows, want %d", tc.op, tc.c, len(got), tc.want)
		}
		p := workflow.Predicate{Op: tc.op, Const: tc.c}
		for _, ri := range got {
			if !p.Matches(col[ri]) {
				t.Errorf("op %v const %d selected non-matching value %d", tc.op, tc.c, col[ri])
			}
		}
	}
}

func TestJoinIndexChains(t *testing.T) {
	a := GetArena()
	defer PutArena(a)
	col := []int64{7, 5, 7, 9, 7}
	ix := NewJoinIndex(col, nil, len(col), a)
	// Chains surface build rows in ascending physical order.
	var got []int32
	for r := ix.First(7); r >= 0; r = ix.Next(r) {
		got = append(got, r)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("chain for 7 = %v, want [0 2 4]", got)
	}
	if r := ix.First(5); r != 1 || ix.Next(r) != -1 {
		t.Fatalf("chain for 5 starts at %d", r)
	}
	if ix.First(42) != -1 {
		t.Fatal("missing key should yield -1")
	}
	// A selection hides unselected build rows.
	ix2 := NewJoinIndex(col, []int32{0, 3}, len(col), a)
	if r := ix2.First(7); r != 0 || ix2.Next(r) != -1 {
		t.Fatalf("selected chain for 7 = %d, want only row 0", r)
	}

	// A map model over 200 seeds: build columns with and without a
	// selection, over small and wide key domains, with keys chosen to land
	// in one heads cell and live counts that fill the table to its full
	// load of one half; every present and many absent keys are probed.
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := GetArena()
		n := rng.Intn(600)
		if seed%4 == 0 {
			n = 1 << rng.Intn(10) // a power of two: full load when every row is live and distinct
		}
		var sel []int32
		if seed%4 != 0 && rng.Intn(2) == 0 {
			sel = a.Int32(n)[:0]
			for r := 0; r < n; r++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(r))
				}
			}
		}
		live := liveRows(&Batch{N: n, Sel: sel})
		size := mix.TableSize(len(live))
		// Keys that share key 0's heads cell in a table of this size.
		var sameCell []int64
		for v := int64(1); len(sameCell) < 8; v++ {
			if mix.Value(v)&uint64(size-1) == mix.Value(0)&uint64(size-1) {
				sameCell = append(sameCell, v)
			}
		}
		col := make([]int64, n)
		for r := range col {
			switch seed % 4 {
			case 0:
				col[r] = int64(r) // all distinct
			case 1:
				col[r] = int64(rng.Intn(1 + rng.Intn(20)))
			case 2:
				col[r] = sameCell[rng.Intn(len(sameCell))]
			default:
				col[r] = int64(rng.Intn(6) * size) // equal modulo the size
			}
		}
		model := map[int64][]int32{}
		for _, r := range live {
			model[col[r]] = append(model[col[r]], r)
		}
		ix := NewJoinIndex(col, sel, n, a)
		if len(ix.heads) != size {
			t.Fatalf("seed %d: heads table of %d cells for %d rows, want %d", seed, len(ix.heads), n, size)
		}
		probe := func(v int64) {
			want := model[v]
			var got []int32
			for r := ix.First(v); r >= 0; r = ix.Next(r) {
				if len(got) == 0 && ix.ChainLen(r) != len(want) {
					t.Fatalf("seed %d key %d: ChainLen %d, model %d", seed, v, ix.ChainLen(r), len(want))
				}
				got = append(got, r)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d key %d: chain %v, model %v", seed, v, got, want)
			}
		}
		for v := range model {
			probe(v)
		}
		for _, v := range sameCell {
			probe(v)
		}
		for k := 0; k < 200; k++ {
			probe(int64(n + k)) // absent in the all-distinct columns
			probe(rng.Int63())
		}
		PutArena(a)
	}
}

func TestArenaReuse(t *testing.T) {
	var a Arena
	v1 := a.Int64(100)
	if len(v1) != 100 || cap(v1) != 100 {
		t.Fatalf("len/cap = %d/%d, want 100/100", len(v1), cap(v1))
	}
	v2 := a.Int64(100)
	v2[0] = 42
	if &v1[0] == &v2[0] {
		t.Fatal("distinct allocations share backing")
	}
	a.reset()
	v3 := a.Int64(100)
	if &v3[0] != &v1[0] {
		t.Fatal("reset should rewind to the first slab")
	}
	// Oversized requests get their own slab and don't disturb carving.
	big := a.Int64(slabElems * 2)
	if len(big) != slabElems*2 {
		t.Fatalf("oversized alloc len = %d", len(big))
	}
}

// BenchmarkFilterBatch pins the allocation profile of the columnar filter
// path: one selection vector from a warm arena, zero per-row allocations.
func BenchmarkFilterBatch(b *testing.B) {
	a := GetArena()
	defer PutArena(a)
	n := 1 << 14
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i % 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.reset()
		sel := SelectPred(col, nil, n, workflow.CmpLt, 50, a.Int32(n))
		if len(sel) != n/2 {
			b.Fatalf("selected %d, want %d", len(sel), n/2)
		}
	}
}
