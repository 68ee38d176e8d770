package data

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// Late table sections. A block output is, until something reads it row by
// row, a few index vectors into its inputs (a join's two index vectors, a
// filter's selection) plus the cells no input holds: transform outputs and
// aggregates. Both ends of a dispatch hold every input — a source relation
// of the run's data, generated from the same (workflow, scale) — so the
// section carries each input's index vector and names the relation, and
// the reader gathers that relation's columns from its own copy:
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
// [0, row count) — and then its columns in table order, which are gathered,
// not sent. Every column counts, as a determinant of a later map or chain,
// by its place in that sequence; a gathered column is one (the build side's
// index of a hash join is a chain over the probe key, gathered from the
// probe's relation), a row index never is.
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
// always makes the same bytes — but the reader repeats no column's choice:
// it checks the structure, every length and every index against the
// relation it resolved, and re-runs no search. A relation the reader does
// not hold, or holds with another row count, and an index past its rows are
// ErrUnresolved: the section names rows the reader cannot gather.

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
	sc := wirePool.Get().(*wireScratch)
	defer putScratch(sc)
	buf, err := appendLate(sc.out[:0], t, sc)
	sc.out = buf
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadLate reads a section WriteLate wrote, consuming r to EOF, gathering
// the columns it names from db's relations into rows, of at most maxCells
// cells: a table costs its reader some 40 bytes a cell however few bytes
// declared it, so a block frame passes the cap on its own size.
func ReadLate(r io.Reader, maxCells int64, db map[string]*Table) (*Table, error) {
	if db == nil {
		db = map[string]*Table{}
	}
	return readTable(r, maxWireCells, maxCells, db)
}

// lateGroup is one group of a late table: an input's columns, or (in < 0)
// the columns that read no input; cols ascend.
type lateGroup struct {
	in   int
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

func appendLate(buf []byte, t *Late, sc *wireScratch) ([]byte, error) {
	buf = append(buf, tableMagic...)
	n := t.N
	buf, err := appendHead(buf, presentLate, t.Rel, t.Attrs, n)
	if err != nil || n == 0 {
		return buf, err
	}
	groups, err := lateGroups(t)
	if err != nil {
		return buf, err
	}
	// The sequence of columns: each group's, an input's behind its index.
	nv := len(t.Attrs)
	for _, grp := range groups {
		if grp.in >= 0 {
			nv++
		}
	}
	if cap(sc.cells) < n*nv {
		sc.cells = make([]int64, n*nv)
	}
	cells := sc.cells[:n*nv]
	if cap(sc.stats) < nv {
		sc.stats = make([]colStats, nv)
	}
	stats := sc.stats[:nv]
	clear(stats)
	body := sc.body[:0]
	p := 0 // the next column of the sequence
	for _, grp := range groups {
		if grp.in >= 0 {
			ix := wireColumn(cells, stats, p)
			for r, i := range t.Ins[grp.in].Idx {
				ix[r] = int64(i)
			}
			stats[p].scan(ix)
			body = appendColumn(body, cells, stats, p, latePlan(cells, stats, p, sc), sc)
			stats[p].index = true
			p++
		}
		for _, c := range grp.cols {
			col := wireColumn(cells, stats, p)
			t.Gather(col, c)
			stats[p].scan(col)
			if grp.in < 0 {
				pl := latePlan(cells, stats, p, sc)
				stats[p].mapped = pl.enc == encMap
				body = appendColumn(body, cells, stats, p, pl, sc)
			}
			p++
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

// latePlan is planColumn for a late section's column: a column that never
// decreases is sent as runs where plain would be smaller.
func latePlan(cells []int64, stats []colStats, c int, sc *wireScratch) colPlan {
	pl := planColumn(cells, stats, c, sc, decoded{})
	if pl.enc == encPlain && slices.IsSorted(wireColumn(cells, stats, c)) {
		pl.enc = encRLE
	}
	return pl
}

// lateRead is one group as the reader resolved it: its relation (nil for a
// plain group) and its columns, ascending.
type lateRead struct {
	src  *Table
	cols []int
}

// lateColumns decodes a late section's groups, refs and columns into the
// scratch cells, resolving named relations in db, and returns the scratch
// column of each of the w table columns.
func (d *wireDecoder) lateColumns(n, w int, db map[string]*Table, sc *wireScratch) ([]int, error) {
	ng, err := d.uvarint("group count")
	if err != nil {
		return nil, err
	}
	if ng > uint64(w) || ng == 0 && w > 0 {
		return nil, fmt.Errorf("data: %d groups for %d columns", ng, w)
	}
	groups := make([]lateRead, ng)
	nv := w
	for g := range groups {
		if d.Pos == len(d.B) {
			return nil, fmt.Errorf("data: group %d: %w", g, io.ErrUnexpectedEOF)
		}
		kind := d.B[d.Pos]
		d.Pos++
		switch kind {
		case 0:
			continue
		case 1:
		default:
			return nil, fmt.Errorf("data: group %d: bad kind %d", g, kind)
		}
		rel, err := d.str("relation name")
		if err != nil {
			return nil, err
		}
		rows, err := d.uvarint("relation row count")
		if err != nil {
			return nil, err
		}
		src := db[rel]
		if src == nil {
			return nil, fmt.Errorf("%w: relation %q is not in the reader's data", ErrUnresolved, rel)
		}
		if uint64(len(src.Rows)) != rows {
			return nil, fmt.Errorf("%w: relation %q has %d rows here, %d where it was written", ErrUnresolved, rel, len(src.Rows), rows)
		}
		groups[g].src = src
		nv++
	}
	pos := make([]int, w) // a named column's column of its relation
	for c := range pos {
		g, err := d.uvarint("column group")
		if err != nil {
			return nil, err
		}
		if g >= ng {
			return nil, fmt.Errorf("data: column %d in group %d of %d", c, g, ng)
		}
		grp := &groups[g]
		grp.cols = append(grp.cols, c)
		if grp.src == nil {
			continue
		}
		at, err := d.uvarint("relation column")
		if err != nil {
			return nil, err
		}
		if at >= uint64(len(grp.src.Attrs)) {
			return nil, fmt.Errorf("%w: column %d of relation %q, which has %d", ErrUnresolved, at, grp.src.Rel, len(grp.src.Attrs))
		}
		pos[c] = int(at)
	}
	if cap(sc.cells) < n*nv {
		sc.cells = make([]int64, n*nv)
	}
	cells := sc.cells[:n*nv]
	if cap(sc.stats) < nv {
		sc.stats = make([]colStats, nv)
	}
	stats := sc.stats[:nv]
	out := make([]int, w)
	v := 0
	for g, grp := range groups {
		if len(grp.cols) == 0 {
			return nil, fmt.Errorf("data: group %d holds no column", g)
		}
		if grp.src == nil {
			for _, c := range grp.cols {
				if err := d.column(cells, stats, v, sc); err != nil {
					return nil, fmt.Errorf("data: column %d: %w", c, err)
				}
				out[c] = v
				v++
			}
			continue
		}
		if err := d.column(cells, stats, v, sc); err != nil {
			return nil, fmt.Errorf("data: group %d's row index: %w", g, err)
		}
		stats[v].index = true
		ix, rows := wireColumn(cells, stats, v), int64(len(grp.src.Rows))
		for _, r := range ix {
			if r < 0 || r >= rows {
				return nil, fmt.Errorf("%w: row %d of relation %q, which has %d", ErrUnresolved, r, grp.src.Rel, rows)
			}
		}
		v++
		for _, c := range grp.cols {
			col, at := wireColumn(cells, stats, v), pos[c]
			for r, i := range ix {
				col[r] = grp.src.Rows[i][at]
			}
			stats[v] = colStats{}
			stats[v].scan(col)
			out[c] = v
			v++
		}
	}
	return out, nil
}
