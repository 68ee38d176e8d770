package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// Table wire format (ETBL5). Distributed execution ships block boundary
// outputs between coordinator and worker processes; the encoding below is
// the canonical byte form of a Table:
//
//	"ETBL5" | present(1) | relation | ncols | ncols × (attr rel, attr col)
//	        | nrows | ncols × column        (no columns when nrows is 0)
//
// (present 0 is a nil table, with nothing after it; present 2 a late table
// and 4 an expanded one, late.go). Strings are a uvarint length plus bytes,
// counts are uvarints. The body is column-major: each column is one tag byte
// and one of three encodings of its nrows values —
//
//	plain  zigzag varints, one per row
//	rle    uvarint run count r ≥ 1, then r zigzag varint deltas — the
//	       first run's value from 0, each later one from the run before
//	       it, never 0 — then r uvarint run lengths ≥ 1 summing to nrows
//	dict   uvarint distinct count d, the sorted distinct values (zigzag
//	       varint first value, then d-1 uvarint deltas ≥ 1), a width byte
//	       w = 8·⌈⌈log2 d⌉/8⌉, then the rows' dictionary codes packed
//	       LSB-first at w bits each: one byte or two a row (w = 0, no
//	       codes, for a constant column)
//
// — whichever is smallest by exact computed size, ties to the lower tag.
// dict needs max-min < maxDictSpan, which lets a table over [min, max] stand
// in for a hash map. Tags 3 and 4 were the map and chain encodings, a column
// as a function of an earlier one and a hash join's build rows once per key:
// a join output's late section now carries that structure as its expansion
// (expand.go), and the reader refuses both tags (encodingError). Join
// outputs over skewed small domains are long runs and tiny dictionaries.
//
// The table travels inside a DEFLATE frame (internal/serve), so the layouts
// are the ones DEFLATE can model, not the smallest raw ones: a run stream's
// values are deltas, which a join output's climbing key columns turn into a
// few repeated bytes, and kept apart from the run lengths; dictionary codes
// sit on byte boundaries, where equal codes are equal bytes.
//
// The format is lossless (ReadTable(WriteTable(t)) reproduces t exactly,
// attribute and row order included) and canonical in both directions: the
// same table always encodes to the same bytes — a block that executes twice
// on different workers returns byte-identical payloads and the coordinator
// can commit whichever copy arrives first — and ReadTable accepts only
// bytes WriteTable could have produced (minimal varints, maximal runs,
// fully used dictionaries, the encoder's own choice of encoding).
//
// Like stats.ReadStore, the reader defends against truncated or hostile
// streams: declared counts are capped, and because a run or a constant
// column declares many rows in a few bytes, rows × columns is capped too
// (ErrWireCap) before anything is allocated for them, and a run stream's
// count by the rows and by the bytes left. The writer refuses the same
// tables, so both ends of a dispatch classify an oversized block alike.

// tableMagic versions the stream; bump on any incompatible change.
const tableMagic = "ETBL5"

// Wire limits: a schema wider than maxWireCols or a name longer than
// maxWireName is rejected outright (no workflow in the system approaches
// either), and a table of more than maxWireCells cells — what a 64 MiB
// body of one-byte varints could carry — does not cross the wire.
const (
	maxWireCols  = 1 << 12
	maxWireName  = 1 << 12
	maxWireCells = 1 << 26
)

// ErrWireCap reports a table with more rows or cells than the wire format
// carries. Distributed dispatch treats it like a body over the upload cap:
// the block runs in-process instead.
var ErrWireCap = errors.New("data: table exceeds the wire cell cap")

// Column encoding tags, in tie-break order.
const (
	encPlain byte = iota
	encRLE
	encDict
)

// encodingError refuses a column's tag byte: one past encDict, tags 3 and 4
// included, which were the map and chain encodings before their retirement.
type encodingError struct{ tag byte }

func (e *encodingError) Error() string {
	if name, ok := map[byte]string{3: "map", 4: "chain"}[e.tag]; ok {
		return fmt.Sprintf("encoding tag %d is the retired %s encoding", e.tag, name)
	}
	return fmt.Sprintf("unknown encoding tag %d", e.tag)
}

// maxDictSpan bounds max-min of a dictionary column, and so the mark and
// dictionary tables of both sides.
const maxDictSpan = 1 << 16

// wireScratch is the working memory of one WriteTable or ReadTable call.
type wireScratch struct {
	cells []int64 // the table, column-major, or a late table's row indexes
	stats []colStats
	marks []uint16 // presence marks over [min, max], then dictionary codes
	dict  []int64  // a decoded dictionary
	runs  []int64  // a decoded run stream's values
	out   []byte   // the stream being encoded
	body  []byte   // a late table's columns, encoded after its groups
	// A late table's expansion (expand.go): seen marks the rows an index
	// reads; lv and streams keep the levels' vectors and riders' values for
	// reuse.
	seen    []byte
	lv      []level
	streams [][]int64
	in      bytes.Buffer // the stream being decoded
}

// grow is s at length n, made anew only where its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Scratch sits on a free list, not in a sync.Pool: the collector empties a
// pool, and a worker that writes one large late table a round, with
// collections between rounds, grew its scratch from nothing every round —
// 11.6 MB for wf08@0.05's last block. The list is a stack, so the scratch a
// call grew is the next one taken; it keeps a few, and scratch over
// keptScratchBytes is dropped rather than kept, so one huge (or hostile)
// table does not pin its working memory.
var wireScratches struct {
	sync.Mutex
	free []*wireScratch
}

const (
	keptScratches    = 4
	keptScratchBytes = 1 << 24
)

// getScratch takes scratch off the free list, or makes it.
func getScratch() *wireScratch {
	l := &wireScratches
	l.Lock()
	defer l.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(wireScratch)
	}
	sc := l.free[n-1]
	l.free = l.free[:n-1]
	return sc
}

// putScratch returns scratch to the free list, unless the list is full or
// the scratch is over keptScratchBytes.
func putScratch(sc *wireScratch) {
	size := 8*(cap(sc.cells)+cap(sc.runs)+cap(sc.dict)) + 2*cap(sc.marks) + cap(sc.out) + cap(sc.body) + cap(sc.seen) + sc.in.Cap()
	for i, l := range sc.lv {
		size += 4*(cap(l.rows)+cap(l.byKey)+cap(l.at)) + 8*cap(l.keys) + cap(l.bits)
		sc.lv[i].src = nil // the relation is the caller's, not the scratch's
	}
	for _, s := range sc.streams {
		size += 8 * cap(s)
	}
	if size > keptScratchBytes {
		return
	}
	l := &wireScratches
	l.Lock()
	defer l.Unlock()
	if len(l.free) < keptScratches {
		l.free = append(l.free, sc)
	}
}

// WriteTable serializes the table with a single Write. A nil table encodes
// as a present/absent marker so map values can round-trip without a
// sidecar.
func WriteTable(w io.Writer, t *Table) error {
	sc := getScratch()
	defer putScratch(sc)
	buf, err := appendTable(sc.out[:0], t, sc)
	sc.out = buf
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Presence bytes: a nil table, a table, a late table, the retired expanded
// form whose survivors were gap lists only, and an expanded one (late.go).
const (
	presentNil byte = iota
	presentTable
	presentLate
	presentGapsOnly
	presentExpanded
)

// appendHead appends what every table section starts with after the magic:
// the presence byte, the relation, the schema and the row count, refusing a
// table the wire does not carry.
func appendHead(buf []byte, present byte, rel string, attrs []workflow.Attr, nrows int) ([]byte, error) {
	buf = append(buf, present)
	var err error
	if buf, err = appendWireString(buf, rel); err != nil {
		return buf, err
	}
	ncols := len(attrs)
	if ncols > maxWireCols {
		return buf, fmt.Errorf("data: table %q has %d columns, wire cap is %d", rel, ncols, maxWireCols)
	}
	buf = binary.AppendUvarint(buf, uint64(ncols))
	for _, a := range attrs {
		if buf, err = appendWireString(buf, a.Rel); err != nil {
			return buf, err
		}
		if buf, err = appendWireString(buf, a.Col); err != nil {
			return buf, err
		}
	}
	if nrows > maxWireCells || nrows*ncols > maxWireCells {
		return buf, fmt.Errorf("data: table %q (%d rows × %d columns): %w", rel, nrows, ncols, ErrWireCap)
	}
	return binary.AppendUvarint(buf, uint64(nrows)), nil
}

func appendTable(buf []byte, t *Table, sc *wireScratch) ([]byte, error) {
	buf = append(buf, tableMagic...)
	if t == nil {
		return append(buf, presentNil), nil
	}
	ncols, nrows := len(t.Attrs), len(t.Rows)
	buf, err := appendHead(buf, presentTable, t.Rel, t.Attrs, nrows)
	if err != nil {
		return buf, err
	}

	// Transpose into column-major scratch a tile of rows at a time, and
	// take each column's statistics from the tile while it is still in
	// cache; the encoders then read whole columns sequentially.
	sc.cells, sc.stats = grow(sc.cells, nrows*ncols), grow(sc.stats, ncols)
	cells, stats := sc.cells, sc.stats
	clear(stats)
	for r0 := 0; r0 < nrows; r0 += wireTile {
		tile := t.Rows[r0:min(r0+wireTile, nrows)]
		for r, row := range tile {
			if len(row) != ncols {
				return buf, fmt.Errorf("data: table %q row has %d values, schema has %d columns", t.Rel, len(row), ncols)
			}
			i := r0 + r
			for _, v := range row {
				cells[i] = v
				i += nrows
			}
		}
		for c := range stats {
			stats[c].scan(cells[c*nrows+r0 : c*nrows+r0+len(tile)])
		}
	}
	for c := 0; c < ncols && nrows > 0; c++ {
		col := cells[c*nrows : (c+1)*nrows]
		buf = appendColumn(buf, col, &stats[c], planColumn(col, &stats[c], sc))
	}
	return buf, nil
}

// wireTile is the rows transposed between statistics passes: 512 rows of a
// 14-column table are 56 KiB, inside L2.
const wireTile = 512

// colStats is what one sequential pass over a column yields.
type colStats struct {
	min, max int64
	last     int64 // the previous value scanned
	runs     int   // maximal runs of one value; 0 before the first value
	plain    int   // bytes as zigzag varints
}

// scan folds the next, non-empty, segment of the column into the statistics.
func (s *colStats) scan(seg []int64) {
	if s.runs == 0 {
		*s = colStats{min: seg[0], max: seg[0], last: seg[0], runs: 1}
	}
	mn, mx, prev, runs, plain := s.min, s.max, s.last, s.runs, s.plain
	for _, v := range seg {
		// x|-x has its top bit set exactly when x != 0: a run boundary,
		// counted without a branch the Zipfian columns would mispredict.
		x := uint64(v ^ prev)
		runs += int((x | -x) >> 63)
		prev = v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		plain += varintLen(v)
	}
	s.min, s.max, s.last, s.runs, s.plain = mn, mx, prev, runs, plain
}

// addRun folds in n copies of v that differ from the value before them.
func (s *colStats) addRun(v int64, n int) {
	if s.runs == 0 {
		s.min, s.max = v, v
	}
	s.min, s.max, s.last = min(s.min, v), max(s.max, v), v
	s.runs++
	s.plain += n * varintLen(v)
}

// colPlan is the encoder's decision for one column, and its bytes after
// the tag.
type colPlan struct {
	enc  byte
	min  int64
	size int
	// A dictionary column has dict distinct values, and marks[v-min] != 0
	// for exactly those.
	dict  int
	marks []uint16
}

// planColumn picks the encoding of col, whose statistics are st, by exact
// encoded size.
func planColumn(col []int64, st *colStats, sc *wireScratch) colPlan {
	n := len(col)
	p := colPlan{enc: encPlain, min: st.min, size: st.plain}

	// A run costs at least two bytes, so only a column with few enough runs
	// is worth sizing exactly.
	if 2*st.runs < p.size {
		if rle := rleSize(col, st); rle < p.size {
			p.enc, p.size = encRLE, rle
		}
	}

	// Two dictionary entries or more spend a byte a row: past p.size, no
	// marks pass.
	floor := varintLen(st.min) + 2
	if st.runs > 1 {
		floor += 1 + n
	}
	if span := uint64(st.max) - uint64(st.min); span < maxDictSpan && floor <= p.size {
		sc.marks = grow(sc.marks, maxDictSpan)
		marks := sc.marks[:span+1]
		clear(marks)
		for _, v := range col {
			marks[uint64(v)-uint64(st.min)] = 1
		}
		d, size, last := 0, varintLen(st.min), 0
		for i, m := range marks {
			if m != 0 {
				if d > 0 {
					size += uvarintLen(uint64(i - last))
				}
				last = i
				d++
			}
		}
		size += uvarintLen(uint64(d)) + 1 + (n*dictWidth(d)+7)/8
		if size < p.size {
			p = colPlan{enc: encDict, min: st.min, size: size, dict: d, marks: marks}
		}
	}
	return p
}

// rleSize is col's bytes in runs, after the tag.
func rleSize(col []int64, st *colStats) int {
	size, prev := uvarintLen(uint64(st.runs)), int64(0)
	for i, j := 0, 0; i < len(col); i = j {
		j = runEnd(col, i)
		size += varintLen(col[i]-prev) + uvarintLen(uint64(j-i))
		prev = col[i]
	}
	return size
}

// dictWidth is the bits per code of a d-entry dictionary: whole bytes.
func dictWidth(d int) int { return (bits.Len(uint(d-1)) + 7) &^ 7 }

// runEnd is the end of the run of col[i].
func runEnd(col []int64, i int) int {
	j := i + 1
	for j < len(col) && col[j] == col[i] {
		j++
	}
	return j
}

func varintLen(v int64) int   { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }
func uvarintLen(u uint64) int { return (9*bits.Len64(u) + 64) / 64 } // ⌈bits/7⌉, 1 for 0

// appendColumn encodes col, whose statistics are st, as planned.
func appendColumn(buf []byte, col []int64, st *colStats, p colPlan) []byte {
	buf = append(buf, p.enc)
	switch p.enc {
	case encPlain:
		for _, v := range col {
			buf = binary.AppendVarint(buf, v)
		}
	case encRLE:
		buf = binary.AppendUvarint(buf, uint64(st.runs))
		prev := int64(0)
		for i := 0; i < len(col); i = runEnd(col, i) {
			buf = binary.AppendVarint(buf, col[i]-prev)
			prev = col[i]
		}
		for i, j := 0, 0; i < len(col); i = j {
			j = runEnd(col, i)
			buf = binary.AppendUvarint(buf, uint64(j-i))
		}
	case encDict:
		buf = binary.AppendUvarint(buf, uint64(p.dict))
		buf = binary.AppendVarint(buf, p.min)
		// Turn the presence marks into codes (ranks) while writing the
		// dictionary they index.
		code, last := uint16(0), 0
		for i, m := range p.marks {
			if m != 0 {
				if i > 0 {
					buf = binary.AppendUvarint(buf, uint64(i-last))
				}
				last = i
				p.marks[i] = code
				code++
			}
		}
		w := uint(dictWidth(p.dict))
		buf = append(buf, byte(w))
		if w == 0 {
			break
		}
		var acc uint64
		var nb uint
		for _, v := range col {
			acc |= uint64(p.marks[uint64(v)-uint64(p.min)]) << nb
			if nb += w; nb >= 32 {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(acc))
				acc >>= 32
				nb -= 32
			}
		}
		for ; nb > 0; nb -= min(nb, 8) {
			buf = append(buf, byte(acc))
			acc >>= 8
		}
	}
	return buf
}

func appendWireString(buf []byte, s string) ([]byte, error) {
	if len(s) > maxWireName {
		return buf, fmt.Errorf("data: name longer than wire cap %d", maxWireName)
	}
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...), nil
}

// ReadTable deserializes a table written by WriteTable, consuming r to EOF.
func ReadTable(r io.Reader) (*Table, error) { return ReadTableRows(r, maxWireCells, maxWireCells) }

// ReadTableRows is ReadTable under a row cap and a cell cap below the
// format's own, checked before anything is sized: a table costs its reader
// some 40 bytes a cell however few bytes declared it. A caller whose tables
// hold distinct rows can pass the stream's length: a row differs from the
// one before it in some column, and a column spends a byte a row (plain, or
// a dictionary of two entries or more) or two bytes a run, so the columns
// of n distinct rows take n bytes or more.
func ReadTableRows(r io.Reader, maxRows, maxCells int64) (*Table, error) {
	sc := getScratch()
	defer putScratch(sc)
	d, t, n, err := openSection(r, sc, presentTable, maxRows, maxCells)
	if t == nil || err != nil {
		return nil, err
	}
	w := len(t.Attrs)
	sc.cells = grow(sc.cells, n*w)
	d.verify = true
	for c := 0; c < w && n > 0; c++ {
		if err := d.column(sc.cells[c*n:(c+1)*n], sc); err != nil {
			return nil, fmt.Errorf("data: column %d: %w", c, err)
		}
	}
	if d.Pos != len(d.B) {
		return nil, fmt.Errorf("data: trailing bytes after %d row(s)", n)
	}
	// The rows are the one row kernel's, over columns that read no input:
	// the scratch's, copied out before it goes back to the pool.
	l := &Late{Rel: t.Rel, Attrs: t.Attrs, N: n, Cols: make([]LateCol, w)}
	for c := range l.Cols {
		l.Cols[c] = LateCol{In: -1, Vals: sc.cells[c*n : (c+1)*n]}
	}
	return l.Table(), nil
}

// openSection reads a table section into the scratch and decodes its head:
// the magic, the presence byte, which must be present, the relation, the
// schema and the row count, capped before it sizes anything. A nil table,
// where a plain one may be, is a nil table and no error.
func openSection(r io.Reader, sc *wireScratch, present byte, maxRows, maxCells int64) (*wireDecoder, *Table, int, error) {
	sc.in.Reset()
	if _, err := sc.in.ReadFrom(r); err != nil {
		return nil, nil, 0, fmt.Errorf("data: table stream: %w", err)
	}
	d := &wireDecoder{Cursor: Cursor{B: sc.in.Bytes()}}
	if len(d.B) <= len(tableMagic) {
		return nil, nil, 0, fmt.Errorf("data: table header: %w", io.ErrUnexpectedEOF)
	}
	if magic := d.B[:len(tableMagic)]; string(magic) != tableMagic {
		return nil, nil, 0, fmt.Errorf("data: table stream starts %q, this build reads only version %q", magic, tableMagic)
	}
	d.Pos = len(tableMagic) + 1
	switch got := d.B[d.Pos-1]; {
	case got == presentNil && present == presentTable:
		if d.Pos != len(d.B) {
			return nil, nil, 0, errors.New("data: trailing bytes after a nil table")
		}
		return d, nil, 0, nil
	case got == presentGapsOnly && present == presentLate:
		return nil, nil, 0, fmt.Errorf("%w: presence byte %d is the retired expanded form, whose survivors were gap lists only", errExpansion, got)
	case got != present && (present != presentLate || got != presentExpanded):
		return nil, nil, 0, fmt.Errorf("data: bad table presence byte %d", got)
	}
	rel, err := d.str("relation name")
	if err != nil {
		return nil, nil, 0, err
	}
	t := &Table{Rel: rel}
	ncols, err := d.uvarint("column count")
	if err != nil {
		return nil, nil, 0, err
	}
	if ncols > maxWireCols {
		return nil, nil, 0, fmt.Errorf("data: column count %d exceeds wire cap %d", ncols, maxWireCols)
	}
	for i := uint64(0); i < ncols; i++ {
		var a workflow.Attr
		if a.Rel, err = d.str("attribute relation"); err != nil {
			return nil, nil, 0, err
		}
		if a.Col, err = d.str("attribute column"); err != nil {
			return nil, nil, 0, err
		}
		t.Attrs = append(t.Attrs, a)
	}
	nrows, err := d.uvarint("row count")
	if err != nil {
		return nil, nil, 0, err
	}
	// A run or a constant column declares any number of rows in a few
	// bytes, so the declared shape is capped before it sizes anything.
	if limit := uint64(max(0, min(maxCells, maxWireCells))); nrows > uint64(max(0, maxRows)) || nrows > limit || nrows*ncols > limit {
		return nil, nil, 0, fmt.Errorf("data: %d rows × %d columns: %w", nrows, ncols, ErrWireCap)
	}
	return d, t, int(nrows), nil
}

// wireDecoder is a cursor over one encoded table. verify asks each column
// to be the writer's own choice of encoding.
type wireDecoder struct {
	Cursor
	verify bool
}

func (d *wireDecoder) uvarint(what string) (uint64, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, fmt.Errorf("data: %s: %w", what, err)
	}
	return u, nil
}

// uvarints reads one uvarint into each of dst, what naming them.
func (d *wireDecoder) uvarints(what string, dst ...*uint64) error {
	for _, p := range dst {
		var err error
		if *p, err = d.uvarint(what); err != nil {
			return err
		}
	}
	return nil
}

func (d *wireDecoder) str(what string) (string, error) {
	s, err := d.String(maxWireName)
	if err != nil {
		return "", fmt.Errorf("data: %s: %w", what, err)
	}
	return s, nil
}

// column decodes the next column into col and, with verify, checks it is
// the encoding the writer would have chosen.
func (d *wireDecoder) column(col []int64, sc *wireScratch) error {
	if d.Pos == len(d.B) {
		return io.ErrUnexpectedEOF
	}
	enc := d.B[d.Pos]
	d.Pos++
	var st colStats
	dict := 0
	var err error
	switch enc {
	case encPlain:
		err = d.plainColumn(col)
	case encRLE:
		err = d.rleColumn(col, &st, sc)
	case encDict:
		dict, err = d.dictColumn(col, sc)
	default:
		return &encodingError{enc}
	}
	if err != nil || !d.verify {
		return err
	}
	if enc != encRLE {
		st.scan(col)
	}
	if p := planColumn(col, &st, sc); p.enc != enc || p.dict != dict {
		return fmt.Errorf("non-canonical: encoding %d (%d dictionary entries), the writer picks %d (%d)", enc, dict, p.enc, p.dict)
	}
	return nil
}

func (d *wireDecoder) plainColumn(col []int64) error {
	for i := range col {
		v, err := d.Varint()
		if err != nil {
			return err
		}
		col[i] = v
	}
	return nil
}

// rleColumn takes the column's statistics from its runs as it expands
// them: four fifths of a join output's cells sit in runs, and scanning them
// again value by value would cost as much as decoding them.
func (d *wireDecoder) rleColumn(col []int64, st *colStats, sc *wireScratch) error {
	n := len(col)
	r, err := d.Uvarint()
	if err != nil {
		return err
	}
	if r == 0 || r > uint64(n) {
		return fmt.Errorf("%d runs for %d rows", r, n)
	}
	// A run costs at least two bytes, so the count is checked against what
	// is left of the stream before it sizes anything.
	if left := uint64(len(d.B) - d.Pos); r > left/2 {
		return fmt.Errorf("%d runs in %d bytes", r, left)
	}
	sc.runs = grow(sc.runs, int(r))
	vals := sc.runs
	prev := int64(0)
	for k := range vals {
		delta, err := d.Varint()
		if err != nil {
			return err
		}
		if k > 0 && delta == 0 {
			return errors.New("non-canonical: adjacent runs of one value")
		}
		prev += delta // wraps as the writer's subtraction did
		vals[k] = prev
	}
	i := 0
	for _, v := range vals {
		run, err := d.Uvarint()
		if err != nil {
			return err
		}
		if run == 0 || run > uint64(n-i) {
			return fmt.Errorf("run of %d at row %d of %d", run, i, n)
		}
		seg := col[i : i+int(run)]
		for k := range seg {
			seg[k] = v
		}
		st.addRun(v, len(seg))
		i += len(seg)
	}
	if i != n {
		return fmt.Errorf("runs cover %d of %d rows", i, n)
	}
	return nil
}

func (d *wireDecoder) dictColumn(col []int64, sc *wireScratch) (int, error) {
	nd, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if nd == 0 || nd > maxDictSpan || nd > uint64(len(col)) {
		return 0, fmt.Errorf("dictionary of %d entries for %d rows", nd, len(col))
	}
	sc.dict = grow(sc.dict, maxDictSpan)
	dict := sc.dict[:nd]
	if dict[0], err = d.Varint(); err != nil {
		return 0, err
	}
	for k := 1; k < len(dict); k++ {
		delta, err := d.Uvarint()
		if err != nil {
			return 0, err
		}
		// Not ascending: a zero delta, or one that overflows int64.
		if dict[k] = dict[k-1] + int64(delta); dict[k] <= dict[k-1] {
			return 0, fmt.Errorf("dictionary delta %d at entry %d", delta, k)
		}
	}
	if d.Pos == len(d.B) {
		return 0, io.ErrUnexpectedEOF
	}
	w := uint(d.B[d.Pos])
	d.Pos++
	if w != uint(dictWidth(len(dict))) {
		return 0, fmt.Errorf("code width %d for %d dictionary entries", w, len(dict))
	}
	need := (len(col)*int(w) + 7) / 8
	if len(d.B)-d.Pos < need {
		return 0, io.ErrUnexpectedEOF
	}
	packed := d.B[d.Pos : d.Pos+need]
	d.Pos += need
	var acc uint64
	var nb uint
	mask := uint64(1)<<w - 1
	for i := range col {
		if nb < w {
			if len(packed) >= 4 {
				acc |= uint64(binary.LittleEndian.Uint32(packed)) << nb
				packed = packed[4:]
				nb += 32
			} else {
				for ; len(packed) > 0; packed = packed[1:] {
					acc |= uint64(packed[0]) << nb
					nb += 8
				}
			}
		}
		code := acc & mask
		acc >>= w
		nb -= w
		if code >= nd {
			return 0, fmt.Errorf("code %d at row %d, dictionary has %d entries", code, i, nd)
		}
		col[i] = dict[code]
	}
	return len(dict), nil
}
