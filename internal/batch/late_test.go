package batch

import (
	"math/rand"
	"slices"
	"testing"
)

// lateCase is a batch under test and its row model: model[i] is the i-th
// live row of b, built by nested loops with no batch machinery.
type lateCase struct {
	b     *Batch
	model [][]int64
}

// liveRows returns b's live physical rows in order.
func liveRows(b *Batch) []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	rows := make([]int32, b.N)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// pickLive returns a random ordered subset of b's live rows and the model
// positions it keeps, the selection vector a filter would write.
func pickLive(rng *rand.Rand, b *Batch, a *Arena) (sel []int32, keep []int) {
	live := liveRows(b)
	sel = a.Int32(len(live))[:0]
	for i, r := range live {
		if rng.Intn(3) > 0 {
			sel = append(sel, r)
			keep = append(keep, i)
		}
	}
	return sel, keep
}

// denseCase builds a dense batch of 0–300 rows and 1–4 columns over a small
// key domain, with a selection half the time.
func denseCase(rng *rand.Rand, a *Arena) lateCase {
	n, w, dom := rng.Intn(301), 1+rng.Intn(4), 1+rng.Intn(8)
	b := &Batch{Cols: make([][]int64, w), N: n}
	for c := range b.Cols {
		b.Cols[c] = a.Int64(n)
		for r := range b.Cols[c] {
			b.Cols[c][r] = int64(rng.Intn(dom))
		}
	}
	live := liveRows(b)
	if rng.Intn(2) == 0 {
		b.Sel, _ = pickLive(rng, b, a)
		live = b.Sel
	}
	lc := lateCase{b: b}
	for _, r := range live {
		row := make([]int64, w)
		for c := range row {
			row[c] = b.Cols[c][r]
		}
		lc.model = append(lc.model, row)
	}
	return lc
}

// joinCase joins two cases on random key columns, probing as the engine
// does: chain lengths size the pairs, then the chains fill them.
func joinCase(t *testing.T, rng *rand.Rand, l, r lateCase, a *Arena) lateCase {
	lc, rc := rng.Intn(len(l.b.Cols)), rng.Intn(len(r.b.Cols))
	ix := NewJoinIndex(r.b.Col(rc), r.b.Sel, r.b.N, a)
	lkeys := l.b.Col(lc)
	m := 0
	for _, li := range liveRows(l.b) {
		if first := ix.First(lkeys[li]); first >= 0 {
			m += ix.ChainLen(first)
		}
	}
	lidx, ridx := a.Int32(m), a.Int32(m)
	k := 0
	for _, li := range liveRows(l.b) {
		for ri := ix.First(lkeys[li]); ri >= 0; ri = ix.Next(ri) {
			lidx[k], ridx[k] = li, ri
			k++
		}
	}
	if k != m {
		t.Fatalf("chain lengths sized %d pairs, chains hold %d", m, k)
	}
	out := lateCase{b: Join(l.b, r.b, lidx, ridx, a)}
	for _, lrow := range l.model {
		for _, rrow := range r.model {
			if lrow[lc] == rrow[rc] {
				out.model = append(out.model, append(slices.Clone(lrow), rrow...))
			}
		}
	}
	return out
}

// reshape applies a random WithSel, Project or AppendCol, sometimes reading
// a column first so that cached gathers flow into the derived batch.
func reshape(rng *rand.Rand, lc lateCase, a *Arena) lateCase {
	if rng.Intn(3) == 0 {
		lc.b.Col(rng.Intn(len(lc.b.Cols)))
	}
	switch rng.Intn(3) {
	case 0:
		sel, keep := pickLive(rng, lc.b, a)
		out := lateCase{b: lc.b.WithSel(sel)}
		for _, i := range keep {
			out.model = append(out.model, lc.model[i])
		}
		return out
	case 1:
		cols := make([]int, 1+rng.Intn(len(lc.b.Cols)+1))
		for i := range cols {
			cols[i] = rng.Intn(len(lc.b.Cols))
		}
		out := lateCase{b: lc.b.Project(cols)}
		for _, row := range lc.model {
			prow := make([]int64, len(cols))
			for i, c := range cols {
				prow[i] = row[c]
			}
			out.model = append(out.model, prow)
		}
		return out
	default:
		v := a.Int64(lc.b.N)
		out := lateCase{b: lc.b.AppendCol(v)}
		for i, r := range liveRows(lc.b) {
			v[r] = rng.Int63n(1000)
			out.model = append(out.model, append(slices.Clone(lc.model[i]), v[r]))
		}
		return out
	}
}

// thin keeps about half of the live rows, by a selection.
func thin(rng *rand.Rand, lc lateCase, a *Arena) lateCase {
	live := liveRows(lc.b)
	sel := a.Int32(len(live))[:0]
	out := lateCase{}
	for i, r := range live {
		if rng.Intn(2) == 0 {
			sel = append(sel, r)
			out.model = append(out.model, lc.model[i])
		}
	}
	out.b = lc.b.WithSel(sel)
	return out
}

// treeCase builds a random tree of at most *joins joins over dense leaves
// and appends every batch it made, the result last, to *all.
func treeCase(t *testing.T, rng *rand.Rand, joins *int, a *Arena, all *[]lateCase) lateCase {
	if *joins == 0 || rng.Intn(3) == 0 {
		lc := denseCase(rng, a)
		*all = append(*all, lc)
		return lc
	}
	*joins--
	l := treeCase(t, rng, joins, a, all)
	r := treeCase(t, rng, joins, a, all)
	// Bound the pairs the join can produce by thinning the larger side.
	for len(l.model)*len(r.model) > 1<<16 {
		if len(l.model) > len(r.model) {
			l = thin(rng, l, a)
			*all = append(*all, l)
		} else {
			r = thin(rng, r, a)
			*all = append(*all, r)
		}
	}
	out := joinCase(t, rng, l, r, a)
	*all = append(*all, out)
	for k := rng.Intn(3); k > 0; k-- {
		out = reshape(rng, out, a)
		*all = append(*all, out)
	}
	return out
}

// checkCase holds the rows read through Reads and every Col to the row
// model.
func checkCase(t *testing.T, seed int64, lc lateCase) {
	t.Helper()
	check := func(when string) {
		rows := rowsOf(lc.b)
		if len(rows) != len(lc.model) {
			t.Fatalf("seed %d %s: %d rows, model %d", seed, when, len(rows), len(lc.model))
		}
		for i, row := range rows {
			if !slices.Equal(row, lc.model[i]) {
				t.Fatalf("seed %d %s: row %d = %v, model %v", seed, when, i, row, lc.model[i])
			}
		}
	}
	check("before any read")
	checkReads(t, seed, lc)
	live := liveRows(lc.b)
	for c := range lc.b.Cols {
		col := lc.b.Col(c)
		for i, r := range live {
			if col[r] != lc.model[i][c] {
				t.Fatalf("seed %d: Col(%d) live row %d = %d, model %d", seed, c, i, col[r], lc.model[i][c])
			}
		}
	}
	check("after every column was read")
}

// checkReads holds Reads to the row model: every column is read by exactly
// one of its index vectors, which gives each live row the model's value, and
// no two of them compose one index vector.
func checkReads(t *testing.T, seed int64, lc lateCase) {
	t.Helper()
	seen := make([]bool, len(lc.b.Cols))
	var from []*int32
	for _, rd := range lc.b.Reads() {
		if len(rd.Idx) != len(lc.model) {
			t.Fatalf("seed %d: a read of %d rows, model %d", seed, len(rd.Idx), len(lc.model))
		}
		if ix := lc.b.late(rd.Cols[0]); len(ix) > 0 {
			if slices.Contains(from, &ix[0]) {
				t.Fatalf("seed %d: two reads compose one index vector", seed)
			}
			from = append(from, &ix[0])
		}
		for _, c := range rd.Cols {
			if seen[c] {
				t.Fatalf("seed %d: column %d in two reads", seed, c)
			}
			seen[c] = true
			for i, r := range rd.Idx {
				if v := lc.b.Cols[c][r]; v != lc.model[i][c] {
					t.Fatalf("seed %d: column %d live row %d reads %d, model %d", seed, c, i, v, lc.model[i][c])
				}
			}
		}
	}
	if slices.Contains(seen, false) {
		t.Fatalf("seed %d: a column no read reads", seed)
	}
}

// TestLateColumnsModel holds late columns to a nested-loop row model: random
// trees of up to four joins over dense batches with and without selections,
// each join followed by random selections, projections and appended columns.
// Every batch of the tree is checked, the result first, so a read of a
// derived batch that leaked into the batch it came from shows.
func TestLateColumnsModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := GetArena()
		joins := 1 + rng.Intn(4)
		var all []lateCase
		treeCase(t, rng, &joins, a, &all)
		for i := len(all) - 1; i >= 0; i-- {
			checkCase(t, seed, all[i])
		}
		PutArena(a)
	}
}

// TestJoinGathersOnRead pins where late columns spend arena memory: a join
// and its Reads carve no int64 vector, the first Col of a column carves
// exactly N values and the second nothing, and a join of a join composes
// one int32 vector per distinct input index — however the columns of the
// two sides are interleaved, and whether or not a column was gathered
// (the engine gathers every join key), so a chain of joins composes
// 0, 2, 3, ... vectors, like wf12's star.
func TestJoinGathersOnRead(t *testing.T) {
	var a Arena
	dense := func(n int, f func(r int) int64) *Batch {
		b := &Batch{Cols: [][]int64{make([]int64, n), make([]int64, n)}, N: n}
		for r := 0; r < n; r++ {
			b.Cols[0][r], b.Cols[1][r] = f(r), int64(r)
		}
		return b
	}
	// 100 probe rows, each matching the one build row with its key.
	probe, build := dense(100, func(r int) int64 { return int64(r % 10) }), dense(10, func(r int) int64 { return int64(r) })
	lidx, ridx := a.Int32(100), a.Int32(100)
	for r := range lidx {
		lidx[r], ridx[r] = int32(r), int32(r%10)
	}
	i32 := a.i32.off
	j := Join(probe, build, lidx, ridx, &a)
	if a.i32.off != i32 {
		t.Fatalf("joining two dense batches carved %d int32 values, want none", a.i32.off-i32)
	}
	if rows := rowsOf(j); len(rows) != 100 || rows[37][2] != 7 {
		t.Fatalf("join rows: %d rows, row 37 = %v", len(rows), rows[37])
	}
	if len(a.i64.all) != 0 {
		t.Fatal("Join + Reads carved an int64 vector")
	}
	if col := j.Col(2); len(col) != j.N || col[37] != 7 || a.i64.off != j.N {
		t.Fatalf("first Col(2) carved %d int64 values, want %d", a.i64.off, j.N)
	}
	j.Col(2)
	if a.i64.off != j.N {
		t.Fatalf("second Col(2) carved %d more int64 values, want none", a.i64.off-j.N)
	}

	// joinAgain joins b with build on every other row of b and returns the
	// int32 values the join composed.
	joinAgain := func(b *Batch) (*Batch, int) {
		n := b.N / 2
		l, r := a.Int32(n), a.Int32(n)
		for i := range l {
			l[i], r[i] = int32(2*i), int32(i%10)
		}
		before := a.i32.off
		out := Join(b, build, l, r, &a)
		return out, a.i32.off - before
	}
	// Interleave the sides of j (column 2 already gathered), then join
	// again: the two distinct indexes (lidx, ridx) are composed once each.
	jj, composed := joinAgain(j.Project([]int{0, 2, 1, 3, 0}))
	if composed != 2*jj.N {
		t.Fatalf("join of a join composed %d int32 values, want %d (one vector per distinct index)", composed, 2*jj.N)
	}
	if rows := rowsOf(jj); len(rows) != 50 || !slices.Equal(rows[3], []int64{6, 6, 6, 6, 6, 3, 3}) {
		t.Fatalf("join of a join: row 3 = %v", rows[3])
	}
	// jj has three distinct indexes, whichever of its columns was read.
	jj.Col(0)
	jjj, composed := joinAgain(jj)
	if composed != 3*jjj.N {
		t.Fatalf("third join composed %d int32 values, want %d", composed, 3*jjj.N)
	}
	if rows := rowsOf(jjj); len(rows) != 25 || !slices.Equal(rows[3], []int64{2, 2, 12, 2, 2, 6, 6, 3, 3}) {
		t.Fatalf("third join: row 3 = %v", rows[3])
	}
}
