package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
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
// (present 0 is a nil table, with nothing after it; present 2 a late table,
// late.go). Strings are a uvarint length plus bytes, counts are uvarints. The body is
// column-major: each column is one tag byte and one of five encodings of
// its nrows values —
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
//	map    uvarint j, an earlier column this one is a function of, then the
//	       column's image: one zigzag varint per distinct value of column
//	       j, in ascending order of those values
//	chain  uvarint j, an earlier column, then the image: for each distinct
//	       value of column j, in ascending order, as many zigzag varints as
//	       that value's longest run in column j. Row i is entry r of its
//	       value's list, r being row i's offset in its run of column j
//
// — whichever is smallest by exact computed size, ties to the lower tag and
// then to the lower j. dict, and a map's or chain's column j, need max-min <
// maxDictSpan, which lets a table over [min, max] stand in for a hash map; a
// map's column j is never itself a map column. Join outputs over skewed
// small domains are long runs and tiny dictionaries, and most of their
// columns are what the paper's key / foreign-key metadata (§3.2.2)
// describes — an attribute is a function of its relation's key, both sides
// of an equi-join are one column — costing a value per distinct key, not a
// code per row. A hash join's build side follows each probe row of key k
// with the same H(k) build rows in the same order (rule J1's dot product
// counts them): a chain over the join key ships them once per key.
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
// fully used dictionaries and images, the encoder's own choice of encoding).
//
// Like stats.ReadStore, the reader defends against truncated or hostile
// streams: declared counts are capped, and because a run or a constant
// column declares many rows in a few bytes, rows × columns is capped too
// (ErrWireCap) before anything is allocated for them, and a run stream's
// count, or a chain's image, by the rows and by the bytes left. The writer
// refuses the same tables, so both ends of a dispatch classify an oversized
// block alike.

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
	encMap
	encChain
)

// maxDictSpan bounds max-min of a dictionary column and of a map or chain
// column's determinant, and so the mark, image and dictionary tables of both
// sides.
const maxDictSpan = 1 << 16

// mapWork bounds one column's determinant search to mapWork × nrows cells of
// earlier columns, so that planning a table — which a reader repeats on any
// bytes a peer sends — stays linear in its cells whatever its width.
const mapWork = 4

// wireScratch is the working memory of one WriteTable or ReadTable call.
type wireScratch struct {
	cells []int64 // the table, column-major
	stats []colStats
	marks []uint16     // presence marks over [min, max], then dictionary codes
	dict  []int64      // a decoded dictionary
	runs  []int64      // a decoded run stream's values, or a chain's image
	image []imageEntry // a map or chain image over its determinant's [min, max]
	best  []imageEntry // the image of the column's best determinant so far
	epoch uint64       // the image entries the current pass has written
	out   []byte       // the stream being encoded
	body  []byte       // a late table's columns, encoded after its groups
	in    bytes.Buffer // the stream being decoded

	// chainable[j]: a chain over column j is worth sizing for the column
	// being planned.
	chainable []bool
}

// imageEntry is what a column takes where its determinant takes min+index,
// stamped with the epoch of the pass that wrote it: a new pass starts from
// an empty image without clearing the table.
type imageEntry struct {
	epoch uint64
	v     int64 // as a map: the value
	// As a chain: the value's list is n long, and starts at row at of the
	// column (the writer's longest run so far) or of the decoded image.
	at, n int32
}

// newImage starts a pass over an empty image table of more than span entries.
func (sc *wireScratch) newImage(span uint64) ([]imageEntry, uint64) {
	if uint64(len(sc.image)) <= span {
		sc.image = make([]imageEntry, 1<<bits.Len64(span))
	}
	sc.epoch++
	return sc.image, sc.epoch
}

var wirePool = sync.Pool{New: func() any { return new(wireScratch) }}

// Scratch larger than this is dropped rather than pooled, so one huge (or
// hostile) table does not pin its working memory.
const (
	maxPooledCells = 1 << 22
	maxPooledBytes = 1 << 24
)

func putScratch(sc *wireScratch) {
	if cap(sc.cells) > maxPooledCells {
		sc.cells = nil
	}
	if cap(sc.runs) > maxPooledCells {
		sc.runs = nil
	}
	if cap(sc.out) > maxPooledBytes {
		sc.out = nil
	}
	if cap(sc.body) > maxPooledBytes {
		sc.body = nil
	}
	if sc.in.Cap() > maxPooledBytes {
		sc.in = bytes.Buffer{}
	}
	wirePool.Put(sc)
}

// WriteTable serializes the table with a single Write. A nil table encodes
// as a present/absent marker so map values can round-trip without a
// sidecar.
func WriteTable(w io.Writer, t *Table) error {
	sc := wirePool.Get().(*wireScratch)
	defer putScratch(sc)
	buf, err := appendTable(sc.out[:0], t, sc)
	sc.out = buf
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Presence bytes: a nil table, a table, a late table (late.go).
const (
	presentNil byte = iota
	presentTable
	presentLate
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
	if cap(sc.cells) < nrows*ncols {
		sc.cells = make([]int64, nrows*ncols)
	}
	cells := sc.cells[:nrows*ncols]
	if cap(sc.stats) < ncols {
		sc.stats = make([]colStats, ncols)
	}
	stats := sc.stats[:ncols]
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
		p := planColumn(cells, stats, c, sc, decoded{})
		stats[c].mapped = p.enc == encMap
		buf = appendColumn(buf, cells, stats, c, p, sc)
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
	mapped   bool  // map-encoded, so no map's determinant
	index    bool  // a late table's row index, so no determinant at all
	// recurs is 1 if some value recurs in a later run, 2 if none does, 0
	// before it is asked: a chain over a column none of whose values recurs
	// is the chained column itself, value for value, and never beats plain.
	recurs int8
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

// colPlan is the encoder's decision for one column.
type colPlan struct {
	enc byte
	min int64
	// A dictionary column has dict distinct values, and marks[v-min] != 0
	// for exactly those.
	dict  int
	marks []uint16
	// A map or chain column's determinant, and the stamp of its image in
	// sc.best.
	det   int
	epoch uint64
}

// decoded is what a reader learnt decoding a column as a map or chain over
// det: the size of its image, which the pass of that kind over det would
// find, so that pass need not read the column again.
type decoded struct {
	enc  byte
	det  int
	size int
}

// wireColumn is column c of the column-major cells of a len(stats)-column table.
func wireColumn(cells []int64, stats []colStats, c int) []int64 {
	n := len(cells) / len(stats)
	return cells[c*n : (c+1)*n]
}

// planColumn picks the encoding of column c by exact encoded size, over the
// determinants 0..c-1; stats holds the statistics of those columns and of
// c, and the decisions for the determinants. A reader that
// built the column from an image over a determinant passes what it learnt
// (the writer passes the zero value): the one pass it need not repeat.
func planColumn(cells []int64, stats []colStats, c int, sc *wireScratch, known decoded) colPlan {
	col, st := wireColumn(cells, stats, c), &stats[c]
	n := len(col)
	p := colPlan{enc: encPlain, min: st.min}
	best := st.plain

	// A run costs at least two bytes, so only a column with few enough runs
	// is worth sizing exactly.
	if 2*st.runs < best {
		rle, prev := uvarintLen(uint64(st.runs)), int64(0)
		for i, j := 0, 0; i < n; i = j {
			j = runEnd(col, i)
			rle += varintLen(col[i]-prev) + uvarintLen(uint64(j-i))
			prev = col[i]
		}
		if rle < best {
			p.enc, best = encRLE, rle
		}
	}

	// The determinant search: maps, then chains, each ascending so that ties
	// go to the lower j. A pass ends at a row that contradicts its image, an
	// image that reaches its bound, or the budget, which every determinant
	// tried and every row a pass reads are charged to.
	budget := mapWork * n
	chainable := sc.chainable[:0]
	for j := 0; j < c && budget > 0; j++ {
		budget--
		dst := &stats[j]
		span := uint64(dst.max) - uint64(dst.min)
		// A chain over a map column is sized; over any other, only where the
		// column contradicts a map. Where a map holds, a chain's image is the
		// map's repeated along the runs: no smaller, there or past the map's
		// bound.
		chainable = append(chainable, span < maxDictSpan && dst.mapped && !dst.index)
		if span >= maxDictSpan || dst.mapped || dst.index {
			continue
		}
		det := wireColumn(cells, stats, j)[:min(n, budget)]
		var size, seen int
		var epoch uint64
		if known.enc == encMap && j == known.det {
			size, seen = known.size, len(det)
		} else {
			var image []imageEntry
			image, epoch = sc.newImage(span)
			size, seen, chainable[j] = mapPass(col, det, dst.min, image, epoch, uvarintLen(uint64(j)), best)
		}
		budget -= seen
		if len(det) == n && size > 0 && size < best {
			p.enc, p.det, p.epoch, best = encMap, j, epoch, size
			sc.image, sc.best = sc.best, sc.image
		}
	}
	sc.chainable = chainable
	for j := 0; j < len(chainable) && budget > 0; j++ {
		dst := &stats[j]
		if !chainable[j] || !sc.recurs(wireColumn(cells, stats, j), dst) {
			continue
		}
		det := wireColumn(cells, stats, j)[:min(n, budget)]
		var size, seen int
		var epoch uint64
		if known.enc == encChain && j == known.det {
			size, seen = known.size, len(det)
		} else {
			var image []imageEntry
			image, epoch = sc.newImage(uint64(dst.max) - uint64(dst.min))
			size, seen = chainPass(col, det, dst.min, image, epoch, uvarintLen(uint64(j)), best)
		}
		budget -= seen
		if len(det) == n && size > 0 && size < best {
			p.enc, p.det, p.epoch, best = encChain, j, epoch, size
			sc.image, sc.best = sc.best, sc.image
		}
	}

	// Two dictionary entries or more spend a byte a row: past best, no marks pass.
	floor := varintLen(st.min) + 2
	if st.runs > 1 {
		floor += 1 + n
	}
	if span := uint64(st.max) - uint64(st.min); span < maxDictSpan && floor <= best {
		if cap(sc.marks) < maxDictSpan {
			sc.marks = make([]uint16, maxDictSpan)
		}
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
		if size < best || size == best && p.enc > encDict {
			p = colPlan{enc: encDict, min: st.min, dict: d, marks: marks}
		}
	}
	return p
}

// recurs reports whether a value of det recurs in a later run, and keeps
// the answer in its statistics.
func (sc *wireScratch) recurs(det []int64, st *colStats) bool {
	if st.recurs == 0 {
		st.recurs = 2
		image, epoch := sc.newImage(uint64(st.max) - uint64(st.min))
		for i := 0; i < len(det) && st.recurs == 2; i = runEnd(det, i) {
			e := &image[uint64(det[i])-uint64(st.min)]
			if e.epoch == epoch {
				st.recurs = 1
			}
			e.epoch = epoch
		}
	}
	return st.recurs == 1
}

// mapPass sizes col as a map over det, the first rows of an earlier column
// whose values start at dmin, an image of head bytes and then a value per
// distinct value of det. It returns the size, 0 once the image reaches bound
// or col contradicts it, the rows it read, and whether it stopped at a
// contradiction. The size stands only if the rows are all of col's.
func mapPass(col, det []int64, dmin int64, image []imageEntry, epoch uint64, head, bound int) (size, seen int, contradicted bool) {
	size = head
	i := 0
	for i < len(det) && size < bound {
		dv, v := det[i], col[i]
		e := &image[uint64(dv)-uint64(dmin)]
		if e.epoch != epoch {
			*e = imageEntry{epoch: epoch, v: v}
			size += varintLen(v)
		} else if e.v != v {
			return 0, i + 1, true
		}
		// A join repeats the outer row per match: skip the repeats.
		for i++; i < len(det) && det[i] == dv && col[i] == v; i++ {
		}
	}
	if size >= bound {
		return 0, i, false
	}
	return size, i, false
}

// chainPass sizes col as a chain over det, as mapPass does as a map: the
// image of each value of det is its longest run's rows of col, and every
// other run of the value repeats a prefix of them.
func chainPass(col, det []int64, dmin int64, image []imageEntry, epoch uint64, head, bound int) (size, seen int) {
	size = head
	i := 0
	for k := 0; i < len(det) && size < bound; i = k {
		k = runEnd(det, i)
		e := &image[uint64(det[i])-uint64(dmin)]
		if e.epoch != epoch {
			*e = imageEntry{epoch: epoch}
		}
		m := min(k-i, int(e.n))
		if !slices.Equal(col[i:i+m], col[e.at:int(e.at)+m]) {
			return 0, k
		}
		if k-i > m {
			for _, v := range col[i+m : k] {
				size += varintLen(v)
			}
			e.at, e.n = int32(i), int32(k-i)
		}
	}
	if size >= bound {
		return 0, i
	}
	return size, i
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
func uvarintLen(u uint64) int { return int(varintLens[bits.Len64(u)]) }

// varintLens maps a value's bit length to its varint byte length.
var varintLens = func() (t [65]uint8) {
	for i := range t {
		t[i] = uint8(max(1, (i+6)/7))
	}
	return t
}()

// appendColumn encodes column c as planned.
func appendColumn(buf []byte, cells []int64, stats []colStats, c int, p colPlan, sc *wireScratch) []byte {
	col := wireColumn(cells, stats, c)
	buf = append(buf, p.enc)
	switch p.enc {
	case encPlain:
		for _, v := range col {
			buf = binary.AppendVarint(buf, v)
		}
	case encRLE:
		buf = binary.AppendUvarint(buf, uint64(stats[c].runs))
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
	case encMap:
		buf = binary.AppendUvarint(buf, uint64(p.det))
		dst := &stats[p.det]
		for _, e := range sc.best[:uint64(dst.max)-uint64(dst.min)+1] {
			if e.epoch == p.epoch {
				buf = binary.AppendVarint(buf, e.v)
			}
		}
	case encChain:
		buf = binary.AppendUvarint(buf, uint64(p.det))
		dst := &stats[p.det]
		for _, e := range sc.best[:uint64(dst.max)-uint64(dst.min)+1] {
			if e.epoch == p.epoch {
				for _, v := range col[e.at : e.at+e.n] {
					buf = binary.AppendVarint(buf, v)
				}
			}
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
// hold distinct rows can pass the stream's length if its writer refuses the
// rare table under a byte a row: a row differs from the one before it
// somewhere, and a change costs a byte, except where a chain column reuses
// its image.
func ReadTableRows(r io.Reader, maxRows, maxCells int64) (*Table, error) {
	return readTable(r, maxRows, maxCells, nil)
}

// readTable reads a table section: one WriteTable wrote when db is nil, one
// WriteLate wrote, resolving the relations it names in db, when it is not.
func readTable(r io.Reader, maxRows, maxCells int64, db map[string]*Table) (*Table, error) {
	sc := wirePool.Get().(*wireScratch)
	defer putScratch(sc)
	sc.in.Reset()
	if _, err := sc.in.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("data: table stream: %w", err)
	}
	d := &wireDecoder{Cursor: Cursor{B: sc.in.Bytes()}, verify: db == nil}
	if len(d.B) < len(tableMagic) {
		return nil, fmt.Errorf("data: table header: %w", io.ErrUnexpectedEOF)
	}
	if magic := d.B[:len(tableMagic)]; string(magic) != tableMagic {
		return nil, fmt.Errorf("data: table stream starts %q, this build reads only version %q", magic, tableMagic)
	}
	d.Pos = len(tableMagic)
	if d.Pos == len(d.B) {
		return nil, fmt.Errorf("data: table presence: %w", io.ErrUnexpectedEOF)
	}
	present := d.B[d.Pos]
	d.Pos++
	switch {
	case db == nil && present == presentNil:
		if d.Pos != len(d.B) {
			return nil, errors.New("data: trailing bytes after a nil table")
		}
		return nil, nil
	case db == nil && present == presentTable, db != nil && present == presentLate:
	default:
		return nil, fmt.Errorf("data: bad table presence byte %d", present)
	}
	rel, err := d.str("relation name")
	if err != nil {
		return nil, err
	}
	t := &Table{Rel: rel}
	ncols, err := d.uvarint("column count")
	if err != nil {
		return nil, err
	}
	if ncols > maxWireCols {
		return nil, fmt.Errorf("data: column count %d exceeds wire cap %d", ncols, maxWireCols)
	}
	for i := uint64(0); i < ncols; i++ {
		var a workflow.Attr
		if a.Rel, err = d.str("attribute relation"); err != nil {
			return nil, err
		}
		if a.Col, err = d.str("attribute column"); err != nil {
			return nil, err
		}
		t.Attrs = append(t.Attrs, a)
	}
	nrows, err := d.uvarint("row count")
	if err != nil {
		return nil, err
	}
	// A run or a constant column declares any number of rows in a few
	// bytes, so the declared shape is capped before it sizes anything.
	if limit := uint64(max(0, min(maxCells, maxWireCells))); nrows > uint64(max(0, maxRows)) || nrows > limit || nrows*ncols > limit {
		return nil, fmt.Errorf("data: %d rows × %d columns: %w", nrows, ncols, ErrWireCap)
	}
	n, w := int(nrows), int(ncols)
	// out[c] is the scratch column holding column c of the table.
	var out []int
	if n > 0 && db != nil {
		if out, err = d.lateColumns(n, w, db, sc); err != nil {
			return nil, err
		}
	} else if n > 0 {
		if cap(sc.cells) < n*w {
			sc.cells = make([]int64, n*w)
		}
		if cap(sc.stats) < w {
			sc.stats = make([]colStats, w)
		}
		for c := 0; c < w; c++ {
			if err := d.column(sc.cells[:n*w], sc.stats[:w], c, sc); err != nil {
				return nil, fmt.Errorf("data: column %d: %w", c, err)
			}
		}
	}
	if d.Pos != len(d.B) {
		return nil, fmt.Errorf("data: trailing bytes after %d row(s)", nrows)
	}
	if n == 0 {
		return t, nil
	}
	// One flat backing and one header slice, however many rows.
	flat := make([]int64, n*w)
	t.Rows = make([]Row, n)
	for r := range t.Rows {
		row := flat[r*w : (r+1)*w : (r+1)*w]
		if out == nil {
			for c := range row {
				row[c] = sc.cells[c*n+r]
			}
		} else {
			for c := range row {
				row[c] = sc.cells[out[c]*n+r]
			}
		}
		t.Rows[r] = row
	}
	return t, nil
}

// wireDecoder is a cursor over one encoded table. verify asks each column
// to be the writer's own choice of encoding; a late table's reader checks
// its structure and bounds only (late.go).
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

func (d *wireDecoder) str(what string) (string, error) {
	s, err := d.String(maxWireName)
	if err != nil {
		return "", fmt.Errorf("data: %s: %w", what, err)
	}
	return s, nil
}

// column decodes column c into the column-major cells, after columns 0..c-1,
// and verifies it is the encoding the writer would have chosen.
func (d *wireDecoder) column(cells []int64, stats []colStats, c int, sc *wireScratch) error {
	if d.Pos == len(d.B) {
		return io.ErrUnexpectedEOF
	}
	enc := d.B[d.Pos]
	d.Pos++
	col, st := wireColumn(cells, stats, c), &stats[c]
	*st = colStats{}
	dict, known, start := 0, decoded{det: -1}, d.Pos
	var err error
	switch enc {
	case encPlain:
		err = d.plainColumn(col)
	case encRLE:
		err = d.rleColumn(col, st, sc)
	case encDict:
		dict, err = d.dictColumn(col, sc)
	case encMap:
		known.det, err = d.mapColumn(cells, stats, c, sc)
	case encChain:
		known.det, err = d.chainColumn(cells, stats, c, sc)
	default:
		return fmt.Errorf("unknown encoding tag %d", enc)
	}
	if err != nil {
		return err
	}
	if enc != encRLE && enc != encMap {
		st.scan(col)
	}
	known.enc, known.size = enc, d.Pos-start
	if !d.verify {
		st.mapped = enc == encMap
		return nil
	}
	if p := planColumn(cells, stats, c, sc, known); p.enc != enc || p.dict != dict || enc >= encMap && p.det != known.det {
		return fmt.Errorf("non-canonical: encoding %d (%d dictionary entries, determinant %d), the writer picks %d (%d, %d)", enc, dict, known.det, p.enc, p.dict, p.det)
	}
	st.mapped = enc == encMap
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
	if uint64(cap(sc.runs)) < r {
		sc.runs = make([]int64, r)
	}
	vals := sc.runs[:r]
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
	if cap(sc.dict) < maxDictSpan {
		sc.dict = make([]int64, maxDictSpan)
	}
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
	if w == 0 {
		for i := range col {
			col[i] = dict[0]
		}
		return len(dict), nil
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

// mapColumn decodes a column that is a function of an earlier one: the image
// entries pair up, in order, with that column's distinct values.
func (d *wireDecoder) mapColumn(cells []int64, stats []colStats, c int, sc *wireScratch) (int, error) {
	j, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if j >= uint64(c) || stats[j].mapped || stats[j].index || uint64(stats[j].max)-uint64(stats[j].min) >= maxDictSpan {
		return 0, fmt.Errorf("column %d cannot determine column %d: not earlier, map-encoded, a row index or too wide", j, c)
	}
	dst := &stats[j]
	span := uint64(dst.max) - uint64(dst.min)
	det := wireColumn(cells, stats, int(j))
	image, epoch := sc.newImage(span)
	for i, dv := range det {
		if i == 0 || dv != det[i-1] {
			image[uint64(dv)-uint64(dst.min)].epoch = epoch
		}
	}
	for k := range image[:span+1] {
		if image[k].epoch == epoch {
			if image[k].v, err = d.Varint(); err != nil {
				return 0, err
			}
		}
	}
	// Expand by the determinant's runs, with statistics as in rleColumn.
	col, st := wireColumn(cells, stats, c), &stats[c]
	for i, k := 0, 0; i < len(det); i = k {
		k = runEnd(det, i)
		v := image[uint64(det[i])-uint64(dst.min)].v
		for r := i; r < k; r++ {
			col[r] = v
		}
		if i > 0 && col[i-1] == v {
			st.plain += (k - i) * varintLen(v)
		} else {
			st.addRun(v, k-i)
		}
	}
	return int(j), nil
}

// chainColumn decodes a column that repeats, along each run of an earlier
// column, a list that column's value names, and returns that column.
func (d *wireDecoder) chainColumn(cells []int64, stats []colStats, c int, sc *wireScratch) (int, error) {
	j, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if j >= uint64(c) || stats[j].index || uint64(stats[j].max)-uint64(stats[j].min) >= maxDictSpan {
		return 0, fmt.Errorf("column %d cannot chain column %d: not earlier, a row index or too wide", j, c)
	}
	dst := &stats[j]
	span := uint64(dst.max) - uint64(dst.min)
	det := wireColumn(cells, stats, int(j))
	// Each value's longest run is the length of its list.
	image, epoch := sc.newImage(span)
	for i, k := 0, 0; i < len(det); i = k {
		k = runEnd(det, i)
		e := &image[uint64(det[i])-uint64(dst.min)]
		if e.epoch != epoch {
			*e = imageEntry{epoch: epoch}
		}
		e.n = max(e.n, int32(k-i))
	}
	total := 0
	for k := range image[:span+1] {
		if e := &image[k]; e.epoch == epoch {
			e.at = int32(total)
			total += int(e.n)
		}
	}
	// A value costs at least a byte: the image is checked against what is
	// left of the stream before it sizes anything.
	if left := len(d.B) - d.Pos; total > left {
		return 0, fmt.Errorf("an image of %d values in %d bytes", total, left)
	}
	if cap(sc.runs) < total {
		sc.runs = make([]int64, total)
	}
	vals := sc.runs[:total]
	for r := range vals {
		if vals[r], err = d.Varint(); err != nil {
			return 0, err
		}
	}
	col := wireColumn(cells, stats, c)
	for i, k := 0, 0; i < len(det); i = k {
		k = runEnd(det, i)
		e := &image[uint64(det[i])-uint64(dst.min)]
		copy(col[i:k], vals[e.at:])
	}
	return int(j), nil
}
