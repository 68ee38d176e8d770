package data

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// Late table sections. A block output, whichever executor made it, is a
// few index vectors into its inputs (a join's two index vectors, a filter's
// selection) plus the cells no input holds: transform outputs and
// aggregates; Table builds its rows where they are needed. Both ends of a
// dispatch hold every input — a source relation of the run's data,
// generated from the same (workflow, scale) — so the section carries each
// input's index vector and names the relation, and the reader resolves it
// in its own copy:
//
//	"ETBL5" | 2 | relation | ncols | ncols × (attr rel, attr col) | nrows
//	        | ngroups | ngroups × group | ncols × ref | columns
//	group = 0 (plain) | 1 (named), relation name, uvarint row count
//	ref   = uvarint group [, uvarint column of the named relation]
//
// (no groups, refs or columns when nrows is 0). The refs put every column in
// one group, and every group holds at least one. The columns are the groups'
// in group order: a plain group's columns in table order, each an ETBL5
// column; a named group's row index — an ETBL5 column of nrows values in
// [0, row count) — and then its columns in table order, which are named,
// not sent. Each column is encoded on its own.
//
// A column that never decreases — above all the row index of a relation
// read in scan order, as a probe side's or a selection's is — is sent as
// runs where plain would be smaller: its run values are then small gaps and
// its run lengths mostly 1, which the frame's DEFLATE takes to a fraction of
// what climbing plain varints leave (a 2,051-row selection of 3,474 rows:
// 4,062 bytes plain and 4,104 as runs, 3,595 and 669 after DEFLATE).
//
// The writer groups the columns in table order: each input's where the
// table first reads it, and each run of columns that read no input — the
// cells no input holds — where it starts, and it names every input: a
// plain group is one whose columns read none. Nothing in the writer bounds
// a section by its all-plain form (an input whose few columns a wide index
// reads can cost more named than plain), so the tests hold generated joins
// to that bound instead. The section is canonical — the same late table
// and loop always make the same bytes — but the reader repeats no column's
// choice: it checks the structure, every length and every index against
// the relation it resolved. A relation the reader does not hold, or holds
// with another row count, and an index past its rows are ErrUnresolved: the
// section names rows the reader cannot gather.
//
// Where the table carries the loop that made its row indexes (Late.Levels,
// expand.go) — the nested loop a block's hash joins run, which a probe
// side's scan order and its build sides' keys fix — the section may be
// expanded: presence byte 4, the same groups and refs, and the expansion in
// place of the row indexes,
//
//	"ETBL5" | 4 | relation | ncols | ncols × (attr rel, attr col) | nrows
//	        | ngroups | ngroups × group | ncols × ref | levels | columns
//	levels = one level per named group, the first leading the loop:
//	         uvarint (group + ngroups × riders) [, uvarint key column of
//	         its relation, uvarint from, uvarint column] (the key: past
//	         the first level only) | survivors | riders × rider
//	survivors = 0, then a bitmap of ⌈rows/8⌉ bytes over the level's
//	         relation of rows rows (row i is bit i%8 of byte i/8, bits past
//	         its last row 0), or uvarint count+1 (count ≤ nrows), then the
//	         rows ascending, the first as its row and each later one as its
//	         gap from the one before, less one: the fewer bytes, ties to 0
//	rider  = uvarint plain column, uvarint count, then an ETBL5 column of
//	         count values: the column's value at each step of the level
//
// With from an earlier level, the key column is that level's relation's;
// with from the level itself, a rider of an earlier level (a join on a
// transform's output). The columns are the plain groups' that ride no level,
// each encoded as in the index form. The reader runs the loop into the row
// indexes and riders before it decodes a column, stopping at nrows rows and
// levels × nrows steps. A level naming a plain group or a named one twice, a
// key over a later level or a column no earlier level carries, a rider that
// is no plain column or one twice, more survivors than rows or bytes left,
// survivors in the layout the writer would not have chosen, and a loop that
// makes other than nrows rows or takes other than a rider's count of values
// are errExpansion, as is presence byte 3, the retired expanded form whose
// survivors were gap lists only; a survivor or key column past its
// relation's are ErrUnresolved. The writer expands a section only where its
// loop reproduces every index vector and rider, and the expansion takes no
// more raw bytes than the index columns and riders' columns it replaces;
// otherwise it writes the index form. The reader sets the loop it ran as
// the table's, so a section read back writes the same bytes again.

// ErrUnresolved reports source rows a reader does not hold as their writer
// did: a late table section naming a relation the reader lacks or holds with
// another row count, or reading past its last row. A dispatch coordinator
// also reports a block that read such a relation with it.
var ErrUnresolved = errors.New("data: a source relation is not the reader's")

// Late is a table in late form: which rows of which relations its columns
// read, and the values of the columns that read none.
type Late struct {
	// Rel and Attrs are the table's name and schema.
	Rel   string
	Attrs []workflow.Attr
	// N is the row count.
	N int
	// Ins are the relations the table reads rows of.
	Ins []LateInput
	// Cols has one entry per attribute.
	Cols []LateCol
	// Levels is the nested loop that made the index vectors, in loop
	// order (expand.go), or nil for none: a group-by's output, or a table
	// no loop made. WriteLate sends a loop only where it makes exactly
	// the index vectors, and the index form otherwise.
	Levels []LateLevel
}

// LateLevel is one level of the nested loop that made a late table's rows:
// rows of input In. Past the first level, they are the rows whose column Key
// of In's relation equals column FromCol of level From's current row, From
// an earlier level, or, where From is the level itself, the table's column
// FromCol, a rider (a transform's output over the earlier levels' rows).
type LateLevel struct {
	In, Key, From, FromCol int
}

// LateInput is one index vector into a relation both ends of a dispatch
// hold.
type LateInput struct {
	// Src is the relation, named on the wire by Src.Rel and its row count.
	Src *Table
	// Idx holds, for each of the N rows, the row of Src it reads.
	Idx []int32
}

// LateCol is where one attribute's values come from: column Col of input
// In's relation, read through its index vector, or, when In is negative,
// Vals.
type LateCol struct {
	In, Col int
	Vals    []int64
}

// WriteLate serializes a late table with a single Write.
func WriteLate(w io.Writer, t *Late) error {
	sc := getScratch()
	defer putScratch(sc)
	buf, err := appendLate(sc.out[:0], t, sc)
	sc.out = buf
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadLate reads a section WriteLate wrote, consuming r to EOF, and returns
// the late table it declares over db's relations, of at most maxCells cells:
// the table and the rows its Table builds cost their reader some 40 bytes a
// cell however few bytes declared them, so a block frame passes the cap on
// its own size.
func ReadLate(r io.Reader, maxCells int64, db map[string]*Table) (*Late, error) {
	sc := getScratch()
	defer putScratch(sc)
	d, t, n, err := openSection(r, sc, presentLate, maxWireCells, maxCells)
	if err != nil {
		return nil, err
	}
	expanded := d.B[len(tableMagic)] == presentExpanded
	l := &Late{Rel: t.Rel, Attrs: t.Attrs, N: n, Cols: make([]LateCol, len(t.Attrs))}
	if n == 0 {
		if expanded {
			return nil, fmt.Errorf("%w: an expansion of no rows", errExpansion)
		}
		for c := range l.Cols {
			l.Cols[c].In = -1 // every column is its (empty) values
		}
	} else if err := d.lateColumns(l, db, sc, expanded); err != nil {
		return nil, err
	}
	if d.Pos != len(d.B) {
		return nil, fmt.Errorf("data: trailing bytes after %d row(s)", n)
	}
	return l, nil
}

// lateGroup is one group of a late table: an input's columns, or (in < 0)
// the columns that read no input; cols ascend. A reader has the input's
// relation, src, and no number for it.
type lateGroup struct {
	in   int
	src  *Table
	cols []int
}

// lateGroups checks t's shape and groups its columns in table order: an
// input's columns in one group, where the table first reads the input, and
// each run of columns that read no input in one plain group, where it
// starts.
func lateGroups(t *Late) ([]lateGroup, error) {
	if len(t.Cols) != len(t.Attrs) {
		return nil, fmt.Errorf("data: late table %q has %d column sources for %d columns", t.Rel, len(t.Cols), len(t.Attrs))
	}
	of := make([]int, len(t.Ins)) // the group of each input, plus one
	var groups []lateGroup
	for c, lc := range t.Cols {
		if lc.In < 0 {
			if len(lc.Vals) != t.N {
				return nil, fmt.Errorf("data: late table %q: column %d has %d values for %d rows", t.Rel, c, len(lc.Vals), t.N)
			}
			if c == 0 || t.Cols[c-1].In >= 0 {
				groups = append(groups, lateGroup{in: -1})
			}
			g := &groups[len(groups)-1]
			g.cols = append(g.cols, c)
			continue
		}
		if lc.In >= len(t.Ins) {
			return nil, fmt.Errorf("data: late table %q: column %d reads input %d of %d", t.Rel, c, lc.In, len(t.Ins))
		}
		in := &t.Ins[lc.In]
		if lc.Col < 0 || lc.Col >= len(in.Src.Attrs) {
			return nil, fmt.Errorf("data: late table %q: column %d reads column %d of %s", t.Rel, c, lc.Col, in.Src.Rel)
		}
		if of[lc.In] == 0 {
			if len(in.Idx) != t.N {
				return nil, fmt.Errorf("data: late table %q: an index of %d rows for %d", t.Rel, len(in.Idx), t.N)
			}
			for _, r := range in.Idx {
				if r < 0 || int(r) >= len(in.Src.Rows) {
					return nil, fmt.Errorf("data: late table %q: row %d of %s, which has %d", t.Rel, r, in.Src.Rel, len(in.Src.Rows))
				}
			}
			groups = append(groups, lateGroup{in: lc.In})
			of[lc.In] = len(groups)
		}
		g := &groups[of[lc.In]-1]
		g.cols = append(g.cols, c)
	}
	return groups, nil
}

// Gather writes column c's values, one a row, into col: the named
// relation's cells through its index, or the column's own values.
func (t *Late) Gather(col []int64, c int) {
	lc := t.Cols[c]
	if lc.In < 0 {
		copy(col, lc.Vals)
		return
	}
	in := &t.Ins[lc.In]
	for r, i := range in.Idx {
		col[r] = in.Src.Rows[i][lc.Col]
	}
}

// tableCells is the fewest cells Table gives a goroutine: an arena slab's.
const tableCells = 1 << 16

// Table builds the late table's rows, the one place a table's rows are made
// from columns. Each row fetches each input's source row once. The rows are
// split into one contiguous range per core, each of at least tableCells
// cells, built concurrently, the caller's goroutine taking the first; each
// range has a backing array of its own, so the runtime zeroes them in
// parallel too. t is only read: goroutines may share it.
func (t *Late) Table() *Table {
	return t.table(max(1, min(runtime.GOMAXPROCS(0), t.N*len(t.Cols)/tableCells)))
}

// table is Table over the given number of ranges.
func (t *Late) table(parts int) *Table {
	out := &Table{Rel: t.Rel, Attrs: t.Attrs}
	if t.N == 0 {
		return out
	}
	out.Rows = make([]Row, t.N)
	var wg sync.WaitGroup
	for k := 1; k < parts; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.rows(out.Rows, k*t.N/parts, (k+1)*t.N/parts)
		}()
	}
	t.rows(out.Rows, 0, t.N/parts)
	wg.Wait()
	return out
}

// rows builds rows [lo, hi) into rows[lo:hi]. A source row is fetched into
// a local, so no pointer is stored but the row's own.
func (t *Late) rows(rows []Row, lo, hi int) {
	w := len(t.Cols)
	backing := make([]int64, (hi-lo)*w)
	// Each input's named columns, and the plain columns: where each goes
	// and which column of the relation it reads, or its values.
	type named struct{ c, col int }
	type plain struct {
		c    int
		vals []int64
	}
	ins, plains := make([][]named, len(t.Ins)), []plain(nil)
	for c, lc := range t.Cols {
		if lc.In < 0 {
			plains = append(plains, plain{c, lc.Vals})
		} else {
			ins[lc.In] = append(ins[lc.In], named{c, lc.Col})
		}
	}
	for r := lo; r < hi; r++ {
		row := backing[(r-lo)*w : (r-lo+1)*w : (r-lo+1)*w]
		for k, cols := range ins {
			src := t.Ins[k].Src.Rows[t.Ins[k].Idx[r]]
			for _, p := range cols {
				row[p.c] = src[p.col]
			}
		}
		for _, p := range plains {
			row[p.c] = p.vals[r]
		}
		rows[r] = row
	}
}

// appendLate writes a late table section. The scratch holds only a row
// index at a time, widened to the codec's cells; a plain column is planned
// and encoded from the table's own values, and a named column is named and
// not sent.
func appendLate(buf []byte, t *Late, sc *wireScratch) ([]byte, error) {
	buf = append(buf, tableMagic...)
	present := len(buf)
	n := t.N
	buf, err := appendHead(buf, presentLate, t.Rel, t.Attrs, n)
	if err != nil || n == 0 {
		return buf, err
	}
	groups, err := lateGroups(t)
	if err != nil {
		return buf, err
	}
	// An expansion takes the place of the index columns, and its riders
	// that of their columns, where it takes no more bytes than they do.
	sc.cells = grow(sc.cells, n)
	body := sc.body[:0]
	lv, rs := findExpansion(t, groups, sc)
	if lv != nil {
		// A level's index column reads each of its surviving rows in a run
		// of its own or more, and takes its tag and a byte a row (plain, or
		// codes of a dictionary of two or more) or a run count and two bytes
		// a run (runs, or a dictionary of one): it is planned only where
		// that floor is below the expansion.
		body = appendExpansion(body, lv, rs, len(groups), sc)
		floor := 0
		for _, l := range lv {
			floor += 2 + min(n-1, 2*len(l.rows))
		}
		if len(body) > floor && len(body) > indexBytes(t, groups, rs, sc) {
			lv, rs, body = nil, nil, body[:0]
		} else {
			buf[present] = presentExpanded
		}
	}
	for _, grp := range groups {
		if grp.in >= 0 {
			if lv == nil {
				body = appendLateColumn(body, indexCells(sc.cells[:n], t.Ins[grp.in].Idx), sc)
			}
			continue
		}
		for _, c := range grp.cols {
			if riderOf(rs, c) < 0 {
				body = appendLateColumn(body, t.Cols[c].Vals, sc)
			}
		}
	}
	sc.body = body

	buf = binary.AppendUvarint(buf, uint64(len(groups)))
	groupOf := make([]int, len(t.Attrs))
	for g, grp := range groups {
		for _, c := range grp.cols {
			groupOf[c] = g
		}
		if grp.in < 0 {
			buf = append(buf, 0)
			continue
		}
		src := t.Ins[grp.in].Src
		buf = append(buf, 1)
		if buf, err = appendWireString(buf, src.Rel); err != nil {
			return buf, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(src.Rows)))
	}
	for c, g := range groupOf {
		buf = binary.AppendUvarint(buf, uint64(g))
		if groups[g].in >= 0 {
			buf = binary.AppendUvarint(buf, uint64(t.Cols[c].Col))
		}
	}
	return append(buf, body...), nil
}

// indexBytes is what t's index columns and its riders' columns take as
// planLate plans them.
func indexBytes(t *Late, groups []lateGroup, rs []rider, sc *wireScratch) int {
	size := 0
	for _, grp := range groups {
		if grp.in >= 0 {
			_, p := planLate(indexCells(sc.cells[:t.N], t.Ins[grp.in].Idx), sc)
			size += 1 + p.size
		}
	}
	for _, r := range rs {
		_, p := planLate(r.vals, sc)
		size += 1 + p.size
	}
	return size
}

// indexCells widens the row index idx into cells, of its length.
func indexCells(cells []int64, idx []int32) []int64 {
	for r, i := range idx {
		cells[r] = int64(i)
	}
	return cells
}

// appendLateColumn appends col as planLate plans it.
func appendLateColumn(buf []byte, col []int64, sc *wireScratch) []byte {
	st, p := planLate(col, sc)
	return appendColumn(buf, col, &st, p)
}

// planLate plans col as a late section sends it: by planColumn, but a
// column that never decreases is sent as runs where plain would be smaller.
func planLate(col []int64, sc *wireScratch) (colStats, colPlan) {
	var st colStats
	st.scan(col)
	p := planColumn(col, &st, sc)
	if p.enc == encPlain && slices.IsSorted(col) {
		p.enc, p.size = encRLE, rleSize(col, &st)
	}
	return st, p
}

// lateColumns decodes a late section's groups, refs, expansion if it is
// expanded, and columns into l, resolving named relations in db: each named
// group becomes an input, its row index — sent, or run from the expansion —
// the input's index, and each plain column its values, sent or, for a
// rider, run from the expansion.
func (d *wireDecoder) lateColumns(l *Late, db map[string]*Table, sc *wireScratch, expanded bool) error {
	n, w := l.N, len(l.Attrs)
	ng, err := d.uvarint("group count")
	if err != nil {
		return err
	}
	if ng > uint64(w) || ng == 0 && w > 0 {
		return fmt.Errorf("data: %d groups for %d columns", ng, w)
	}
	groups := make([]lateGroup, ng)
	indexes := 0
	for g := range groups {
		if d.Pos == len(d.B) {
			return fmt.Errorf("data: group %d: %w", g, io.ErrUnexpectedEOF)
		}
		kind := d.B[d.Pos]
		d.Pos++
		if kind == 0 {
			continue
		} else if kind != 1 {
			return fmt.Errorf("data: group %d: bad kind %d", g, kind)
		}
		rel, err := d.str("relation name")
		if err != nil {
			return err
		}
		rows, err := d.uvarint("relation row count")
		if err != nil {
			return err
		}
		src := db[rel]
		if src == nil {
			return fmt.Errorf("%w: relation %q is not in the reader's data", ErrUnresolved, rel)
		}
		if uint64(len(src.Rows)) != rows {
			return fmt.Errorf("%w: relation %q has %d rows here, %d where it was written", ErrUnresolved, rel, len(src.Rows), rows)
		}
		groups[g].src = src
		indexes++
	}
	for c := range l.Cols {
		g, err := d.uvarint("column group")
		if err != nil {
			return err
		}
		if g >= ng {
			return fmt.Errorf("data: column %d in group %d of %d", c, g, ng)
		}
		grp := &groups[g]
		grp.cols = append(grp.cols, c)
		if grp.src == nil {
			continue
		}
		at, err := d.uvarint("relation column")
		if err != nil {
			return err
		}
		if at >= uint64(len(grp.src.Attrs)) {
			return fmt.Errorf("%w: column %d of relation %q, which has %d", ErrUnresolved, at, grp.src.Rel, len(grp.src.Attrs))
		}
		l.Cols[c].Col = int(at)
	}
	if expanded {
		if err := d.expansion(l, groups, indexes, sc); err != nil {
			return err
		}
	}
	sc.cells = grow(sc.cells, n)
	in := 0 // the inputs so far
	for g, grp := range groups {
		if len(grp.cols) == 0 {
			return fmt.Errorf("data: group %d holds no column", g)
		}
		if grp.src == nil {
			for _, c := range grp.cols {
				if l.Cols[c].Vals != nil {
					continue // a rider, run from the expansion
				}
				vals := make([]int64, n)
				if err := d.column(vals, sc); err != nil {
					return fmt.Errorf("data: column %d: %w", c, err)
				}
				l.Cols[c] = LateCol{In: -1, Vals: vals}
			}
			continue
		}
		if !expanded {
			ix := sc.cells[:n]
			if err := d.column(ix, sc); err != nil {
				return fmt.Errorf("data: group %d's row index: %w", g, err)
			}
			rows := int64(len(grp.src.Rows))
			idx := make([]int32, n)
			for r, i := range ix {
				if i < 0 || i >= rows {
					return fmt.Errorf("%w: row %d of relation %q, which has %d", ErrUnresolved, i, grp.src.Rel, rows)
				}
				idx[r] = int32(i)
			}
			l.Ins = append(l.Ins, LateInput{Src: grp.src, Idx: idx})
		}
		for _, c := range grp.cols {
			l.Cols[c].In = in
		}
		in++
	}
	return nil
}
