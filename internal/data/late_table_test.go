package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// randomLate generates a late table of the shapes a block boundary makes,
// over 1–4 relations of 1–300 rows: every input's index is a selection
// folded into a scan (rows in scan order, some skipped, some repeated, as a
// probe side's are), a build side's (any row, in any order), or a column read
// through an upstream output's index (one index composed with another); the
// columns interleave the inputs' named columns with runs of plain ones. One
// case in eight has no rows.
func randomLate(rng *rand.Rand) *Late {
	srcs := make([]*Table, 1+rng.Intn(4))
	for s := range srcs {
		cols := make([][]int64, 1+rng.Intn(5))
		n := 1 + rng.Intn(300)
		for c := range cols {
			for r := 0; r < n; r++ {
				cols[c] = append(cols[c], rng.Int63n(1000)-500)
			}
		}
		srcs[s] = source(fmt.Sprintf("R%d", s), cols...)
	}
	l := &Late{Rel: "out"}
	if rng.Intn(8) > 0 {
		l.N = rng.Intn(2000)
	}
	index := func(rows int) []int32 {
		idx := make([]int32, l.N)
		switch rng.Intn(3) {
		case 0: // a selection folded into a scan
			r := 0
			for i := range idx {
				if rng.Intn(3) == 0 {
					r = min(r+1+rng.Intn(3), rows-1)
				}
				idx[i] = int32(r)
			}
		case 1: // a build side
			for i := range idx {
				idx[i] = int32(rng.Intn(rows))
			}
		default: // through an upstream output's index
			up := make([]int32, 1+rng.Intn(50))
			for i := range up {
				up[i] = int32(rng.Intn(rows))
			}
			for i := range idx {
				idx[i] = up[rng.Intn(len(up))]
			}
		}
		return idx
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		src := srcs[rng.Intn(len(srcs))]
		l.Ins = append(l.Ins, LateInput{Src: src, Idx: index(len(src.Rows))})
	}
	for w := 1 + rng.Intn(12); len(l.Cols) < w; {
		if rng.Intn(3) == 0 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				vals := make([]int64, l.N)
				for r := range vals {
					vals[r] = rng.Int63()
				}
				l.Cols = append(l.Cols, LateCol{In: -1, Vals: vals})
			}
			continue
		}
		in := rng.Intn(len(l.Ins))
		l.Cols = append(l.Cols, LateCol{In: in, Col: rng.Intn(len(l.Ins[in].Src.Attrs))})
	}
	for c := range l.Cols {
		l.Attrs = append(l.Attrs, workflow.Attr{Rel: "out", Col: fmt.Sprintf("c%d", c)})
	}
	return l
}

// checkLateTable holds a late table's rows to Gather, column by column.
func checkLateTable(t *testing.T, what string, l *Late, tbl *Table) {
	t.Helper()
	if tbl.Rel != l.Rel || len(tbl.Attrs) != len(l.Attrs) || len(tbl.Rows) != l.N {
		t.Fatalf("%s: %s with %d columns and %d rows, want %s, %d, %d", what, tbl.Rel, len(tbl.Attrs), len(tbl.Rows), l.Rel, len(l.Attrs), l.N)
	}
	col := make([]int64, l.N)
	for c := range l.Cols {
		l.Gather(col, c)
		for r, row := range tbl.Rows {
			if len(row) != len(l.Cols) || cap(row) != len(l.Cols) {
				t.Fatalf("%s: row %d has length %d and capacity %d for %d columns", what, r, len(row), cap(row), len(l.Cols))
			}
			if row[c] != col[r] {
				t.Fatalf("%s: row %d column %d = %d, Gather %d", what, r, c, row[c], col[r])
			}
		}
	}
}

// TestLateTableModel holds Table, the one row kernel, to Gather over 200
// generated late tables, split into every part count from one to
// GOMAXPROCS and into seven, and through Table itself over a table large
// enough that Table splits it into one part a core.
func TestLateTableModel(t *testing.T) {
	shapes := map[string]int{}
	for seed := int64(0); seed < 200; seed++ {
		l := randomLate(rand.New(rand.NewSource(seed)))
		if _, err := lateGroups(l); err != nil {
			t.Fatalf("seed %d: the generator made a malformed late table: %v", seed, err)
		}
		for c, lc := range l.Cols {
			if lc.In < 0 && c > 0 && l.Cols[c-1].In >= 0 && slices.ContainsFunc(l.Cols[c:], func(lc LateCol) bool { return lc.In >= 0 }) {
				shapes["plain between named"]++
				break
			}
		}
		if l.N == 0 {
			shapes["no rows"]++
		}
		checkLateTable(t, fmt.Sprintf("seed %d Table", seed), l, l.Table())
		for parts := 1; parts <= runtime.GOMAXPROCS(0); parts++ {
			checkLateTable(t, fmt.Sprintf("seed %d %d parts", seed, parts), l, l.table(parts))
		}
		checkLateTable(t, fmt.Sprintf("seed %d 7 parts", seed), l, l.table(7))
	}
	if shapes["plain between named"] == 0 || shapes["no rows"] == 0 {
		t.Errorf("the generator made %v, want some of each", shapes)
	}

	// 120,001 rows of 3 columns are more than four parts' worth of cells,
	// and no part count divides them.
	rng := rand.New(rand.NewSource(1))
	keys, vals := make([]int64, 1000), make([]int64, 1000)
	for r := range keys {
		keys[r], vals[r] = int64(r), rng.Int63()
	}
	l := &Late{Rel: "big", Attrs: make([]workflow.Attr, 3), N: 120_001, Ins: []LateInput{{Src: source("D", keys, vals)}}}
	plain := make([]int64, l.N)
	for r := range plain {
		l.Ins[0].Idx = append(l.Ins[0].Idx, int32(rng.Intn(len(keys))))
		plain[r] = int64(r)
	}
	l.Cols = []LateCol{{In: 0, Col: 1}, {In: -1, Vals: plain}, {In: 0, Col: 0}}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		checkLateTable(t, fmt.Sprintf("GOMAXPROCS %d", procs), l, l.Table())
		runtime.GOMAXPROCS(prev)
	}
}

// fuzzLateDB is the data FuzzReadLate's sections are read over: relations S
// and D of two rows, which hand-written sections name, and the relations of
// the generated joins its round-trip seeds are made of.
func fuzzLateDB(tb testing.TB) (map[string]*Table, [][]byte) {
	db := expansionDB()
	var seeds [][]byte
	for seed := int64(0); len(seeds) < 6; seed++ {
		l, _, _ := lateJoin(rand.New(rand.NewSource(seed)))
		if l.N == 0 {
			continue
		}
		for k := range l.Ins {
			src := *l.Ins[k].Src
			src.Rel = fmt.Sprintf("%s%d", src.Rel, seed)
			db[src.Rel] = &src
			l.Ins[k].Src = &src
		}
		seeds = append(seeds, encodeLate(tb, l))
	}
	return db, seeds
}

// lateSection writes a late section by hand, from the format comment in
// late.go: one column, S.k, of nrows rows, in one group that names rel and
// declares its row count, after which index — a tag byte and its column — is
// the group's row index.
func lateSection(rel string, declared, nrows uint64, index ...byte) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := append([]byte(tableMagic), presentLate)
	b = str(b, "Out")
	b = binary.AppendUvarint(b, 1)
	b = str(str(b, "S"), "k")
	b = binary.AppendUvarint(b, nrows)
	b = append(binary.AppendUvarint(b, 1), 1) // one group, named
	b = binary.AppendUvarint(str(b, rel), declared)
	b = append(b, 0, 0) // column 0 in group 0, S's column 0
	return append(b, index...)
}

// FuzzReadLate drives the late section reader — what a coordinator reads of
// any worker's response — with arbitrary bytes over a small database. It
// must fail with an error, never a panic, and allocate no more than a
// section of the cap's cells could honestly ask for; a late table it does
// accept must be well formed, its rows the schema's width, and it must
// survive a write and a read back.
func FuzzReadLate(f *testing.F) {
	db, seeds := fuzzLateDB(f)
	for _, s := range seeds {
		f.Add(s)
	}
	// The sections a coordinator's frame reader refuses: honest, an index
	// shorter than the rows, one past them, an unknown relation, a row count
	// that differs, an index in the retired map and chain tags.
	for _, s := range [][]byte{
		lateSection("S", 2, 2, encPlain, 0, 2),
		lateSection("S", 2, 3, encRLE, 1, 0, 2),
		lateSection("S", 2, 2, encPlain, 0, 4),
		lateSection("T", 2, 2, encPlain, 0, 2),
		lateSection("S", 3, 2, encPlain, 0, 2),
		lateSection("S", 2, 2, 3, 0, 0, 2),
		lateSection("S", 2, 2, 4, 0, 0, 2),
	} {
		f.Add(s)
	}
	// The expanded sections a reader refuses: past the declared rows or
	// short of them, a survivor or a bit past the relation's end, a bitmap
	// one byte short, more set bits than rows, a gap list where the bitmap
	// is no larger and a bitmap where the gap list is smaller, the retired
	// presence byte 3, a key over a later level or a column out of range, no
	// survivors for the rows declared, a retired tag, and riders short or
	// long by one, past the table, not plain, twice or missing under the
	// level they key.
	for _, c := range hostileExpansions {
		f.Add(c.section)
	}
	f.Add(encodeLate(f, lateOf(mixedTable())))
	f.Add(encodeLate(f, &Late{Rel: "empty", Attrs: mixedTable().Attrs}))
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := ReadLate(bytes.NewReader(in), fuzzWireCells, db)
		var tbl *Table
		if err == nil {
			tbl = l.Table()
		}
		runtime.ReadMemStats(&after)
		// Some 40 bytes a cell of a table of the cap's cells, and the codec's
		// fixed scratch (dictionary, marks, an image over the widest span):
		// a bomb would be hundreds of megabytes.
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Fatalf("decoding %d bytes under a cap of %d cells allocated %d", len(in), fuzzWireCells, got)
		}
		if err != nil {
			return // refused cleanly — the property under test
		}
		if _, err := lateGroups(l); err != nil {
			t.Fatalf("accepted a malformed late table: %v", err)
		}
		for i, row := range tbl.Rows {
			if len(row) != len(tbl.Attrs) {
				t.Fatalf("row %d has %d values, the schema %d columns", i, len(row), len(tbl.Attrs))
			}
		}
		back, err := ReadLate(bytes.NewReader(encodeLate(t, l)), fuzzWireCells, db)
		if err != nil {
			t.Fatalf("an accepted late table does not read back: %v", err)
		}
		if again := back.Table(); !slices.EqualFunc(again.Rows, tbl.Rows, slices.Equal) || again.Rel != tbl.Rel || !slices.Equal(again.Attrs, tbl.Attrs) {
			t.Fatal("an accepted late table reads back as other rows")
		}
	})
}
