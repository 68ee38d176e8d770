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
	cols  wireCols
	stats []colStats
	marks []uint16     // presence marks over [min, max], then dictionary codes
	dict  []int64      // a decoded dictionary
	runs  []int64      // a decoded run stream's values, or a chain's image
	image []imageEntry // a map or chain image over its determinant's [min, max]
	best  []imageEntry // the image of the column's best determinant so far
	epoch uint64       // the image entries the current pass has written
	out   []byte       // the stream being encoded
	body  []byte       // a late table's columns, encoded after its groups
	// starts marks the rows where a late table's expansion search
	// (findExpansion) saw an earlier level's row change.
	starts []bool
	in     bytes.Buffer // the stream being decoded

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
	size := 8*(cap(sc.cells)+cap(sc.runs)+cap(sc.cols.arena)+cap(sc.dict)) + 24*(cap(sc.image)+cap(sc.best)) +
		2*cap(sc.marks) + cap(sc.out) + cap(sc.body) + cap(sc.starts) + sc.in.Cap()
	if size > keptScratchBytes {
		return
	}
	// The column views name the caller's tables and the vectors gathered
	// for them: none outlives the call.
	clear(sc.cols.vals)
	sc.cols.late = nil
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

// Presence bytes: a nil table, a table, a late table and an expanded one
// (late.go).
const (
	presentNil byte = iota
	presentTable
	presentLate
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
	cols := sc.cols.plain(cells, ncols)
	for c := 0; c < ncols && nrows > 0; c++ {
		p := planColumn(cols, stats, c, sc, decoded{})
		stats[c].mapped = p.enc == encMap
		buf = appendColumn(buf, cols, stats, c, p, sc)
	}
	return buf, nil
}

// wireTile is the rows transposed between statistics passes: 512 rows of a
// 14-column table are 56 KiB, inside L2.
const wireTile = 512

// colStats is what one sequential pass over a column yields. A late table
// writer's named column has none until planColumn looks at it as a
// determinant (wireCols.resolve), and then only its min and max.
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

// wireCols is a table's columns by place, as planColumn and the decoder read
// them: vals[j] is all of column j, but for a late table's named columns
// (named[j] ≥ 0, the table's column it reads), whose rows are gathered from
// their relation only as far as a determinant pass reads them, and kept.
type wireCols struct {
	n     int
	vals  [][]int64
	late  *Late
	named []int
	// srcs[j] is named column j's relation column, copied out on the first
	// read where the relation has fewer rows than the table: gathering then
	// reads one small vector, not a row a cell.
	srcs [][]int64
	// arena holds the gathered columns and the copied-out ones, used cells
	// of it this call: the scratch keeps it, so a warm writer or reader
	// allocates none.
	arena []int64
	used  int
}

// take is k cells of the arena, holding v's: v's own, grown in place, when
// it is the arena's last take and the arena has room.
func (cs *wireCols) take(v []int64, k int) []int64 {
	if n := len(v); n > 0 && cs.used >= n && &cs.arena[cs.used-n] == &v[0] && len(cs.arena)-cs.used >= k-n {
		cs.used += k - n
		return cs.arena[cs.used-k : cs.used-k+n : cs.used]
	}
	if len(cs.arena)-cs.used < k {
		cs.arena, cs.used = make([]int64, max(k, 2*len(cs.arena), cs.n)), 0
	}
	out := append(cs.arena[cs.used:cs.used:cs.used+k], v...)
	cs.used += k
	return out
}

// gatherChunk is the fewest rows a named column is first gathered to; each
// later gather takes it gatherGrowth times as far.
const (
	gatherChunk  = 1 << 10
	gatherGrowth = 4
)

// plain views w columns of column-major cells: every column complete.
func (cs *wireCols) plain(cells []int64, w int) *wireCols {
	n := 0
	if w > 0 {
		n = len(cells) / w
	}
	cs.reset(n, w, nil)
	for c := range cs.vals {
		cs.vals[c] = cells[c*n : (c+1)*n]
	}
	return cs
}

// reset starts the view of a table of n rows and w places, none set; every
// place of a late table is one the caller sets or names.
func (cs *wireCols) reset(n, w int, late *Late) {
	cs.n, cs.late, cs.used = n, late, 0
	if cap(cs.vals) < w {
		cs.vals, cs.srcs, cs.named = make([][]int64, w), make([][]int64, w), make([]int, w)
	}
	cs.vals, cs.srcs, cs.named = cs.vals[:w], cs.srcs[:w], cs.named[:w]
	clear(cs.vals)
	clear(cs.srcs)
	for j := range cs.named {
		cs.named[j] = -1
	}
}

// source is named column j's relation and index, and the relation's column
// where it has fewer rows than the table (nil otherwise).
func (cs *wireCols) source(j int) (*LateInput, int, []int64) {
	lc := cs.late.Cols[cs.named[j]]
	in := &cs.late.Ins[lc.In]
	if cs.srcs[j] == nil && len(in.Src.Rows) < cs.n {
		col := cs.take(nil, len(in.Src.Rows))
		for _, row := range in.Src.Rows {
			col = append(col, row[lc.Col])
		}
		cs.srcs[j] = col
	}
	return in, lc.Col, cs.srcs[j]
}

// rows gives column j at least min(k, n) of its rows and returns all it
// has: a named column short of them is gathered gatherGrowth times as far
// as it was, and at least gatherChunk rows, or k if that is further.
func (cs *wireCols) rows(j, k int) []int64 {
	v := cs.vals[j]
	if len(v) >= min(k, cs.n) {
		return v
	}
	k = min(max(k, gatherGrowth*len(v), gatherChunk), cs.n)
	in, col, src := cs.source(j)
	v = cs.take(v, k)
	if src != nil {
		for _, i := range in.Idx[len(v):k] {
			v = append(v, src[i])
		}
	} else {
		for _, i := range in.Idx[len(v):k] {
			v = append(v, in.Src.Rows[i][col])
		}
	}
	cs.vals[j] = v
	return v
}

// head is the first rows of determinant j a pass may read: those gathered,
// at least min(k, limit), and no more than limit.
func (cs *wireCols) head(j, k, limit int) []int64 {
	v := cs.rows(j, k)
	return v[:min(len(v), limit)]
}

// resolve gives a named column its min and max the first time planColumn
// looks at it: its relation's column's where the relation has fewer rows
// than the table and that span is under maxDictSpan — a gathered subset's
// span is no wider, and a map's or chain's image lists only the values
// present, in order, so the bytes are those of the subset's own bounds —
// and otherwise the gathered column's own.
func (cs *wireCols) resolve(stats []colStats, j int) {
	if cs.late == nil || cs.named[j] < 0 || stats[j].runs != 0 {
		return
	}
	if _, _, src := cs.source(j); src != nil {
		mn, mx := slices.Min(src), slices.Max(src)
		if uint64(mx)-uint64(mn) < maxDictSpan {
			stats[j] = colStats{min: mn, max: mx, last: mx, runs: 1}
			return
		}
	}
	stats[j].scan(cs.rows(j, cs.n))
}

// planColumn picks the encoding of column c by exact encoded size, over the
// determinants 0..c-1; stats holds the statistics of those columns and of
// c, and the decisions for the determinants. A reader that
// built the column from an image over a determinant passes what it learnt
// (the writer passes the zero value): the one pass it need not repeat.
func planColumn(cols *wireCols, stats []colStats, c int, sc *wireScratch, known decoded) colPlan {
	col, st := cols.vals[c], &stats[c]
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
	// tried and every row a pass reads are charged to. A pass that reads
	// all a named column has gathered runs again over gatherGrowth times the
	// rows until it ends before them: what it returns, and charges, is then
	// what it would over the whole column.
	budget := mapWork * n
	chainable := sc.chainable[:0]
	for j := 0; j < c && budget > 0; j++ {
		budget--
		cols.resolve(stats, j)
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
		limit := min(n, budget)
		var size, seen int
		var epoch uint64
		if known.enc == encMap && j == known.det {
			size, seen = known.size, limit
		} else {
			for det := cols.head(j, 1, limit); ; det = cols.head(j, len(det)+1, limit) {
				var image []imageEntry
				image, epoch = sc.newImage(span)
				size, seen, chainable[j] = mapPass(col, det, dst.min, image, epoch, uvarintLen(uint64(j)), best)
				if chainable[j] || seen < len(det) || len(det) == limit {
					break
				}
			}
		}
		budget -= seen
		if limit == n && size > 0 && size < best {
			p.enc, p.det, p.epoch, best = encMap, j, epoch, size
			sc.image, sc.best = sc.best, sc.image
		}
	}
	sc.chainable = chainable
	for j := 0; j < len(chainable) && budget > 0; j++ {
		dst := &stats[j]
		if !chainable[j] || !sc.recurs(cols, j, dst) {
			continue
		}
		limit := min(n, budget)
		var size, seen int
		var epoch uint64
		if known.enc == encChain && j == known.det {
			size, seen = known.size, limit
		} else {
			for det := cols.head(j, 1, limit); ; det = cols.head(j, len(det)+1, limit) {
				var image []imageEntry
				image, epoch = sc.newImage(uint64(dst.max) - uint64(dst.min))
				size, seen = chainPass(col, det, dst.min, image, epoch, uvarintLen(uint64(j)), best)
				if seen < len(det) || len(det) == limit {
					break
				}
			}
		}
		budget -= seen
		if limit == n && size > 0 && size < best {
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

// recurs reports whether a value of column j recurs in a later run, and
// keeps the answer in its statistics, st. A named column whose relation
// column holds distinct values recurs where its row index does, which is
// read instead; any other is read as far as the first recurrence, over
// gatherGrowth times the rows at each try.
func (sc *wireScratch) recurs(cols *wireCols, j int, st *colStats) bool {
	if st.recurs == 0 && cols.late != nil && cols.named[j] >= 0 {
		if in, _, src := cols.source(j); src != nil && sc.distinct(src) {
			st.recurs = indexRecurs(in.Idx, len(src))
		}
	}
	for det := []int64(nil); st.recurs == 0; {
		det = cols.rows(j, len(det)+1)
		image, epoch := sc.newImage(uint64(st.max) - uint64(st.min))
		for i := 0; i < len(det); i = runEnd(det, i) {
			e := &image[uint64(det[i])-uint64(st.min)]
			if e.epoch == epoch {
				st.recurs = 1
				break
			}
			e.epoch = epoch
		}
		if st.recurs == 0 && len(det) == cols.n {
			st.recurs = 2
		}
	}
	return st.recurs == 1
}

// distinct reports whether col, a relation's column, holds each value at
// most once; one spanning maxDictSpan or more is taken not to.
func (sc *wireScratch) distinct(col []int64) bool {
	mn, mx := slices.Min(col), slices.Max(col)
	if uint64(mx)-uint64(mn) >= maxDictSpan {
		return false
	}
	image, epoch := sc.newImage(uint64(mx) - uint64(mn))
	for _, v := range col {
		e := &image[uint64(v)-uint64(mn)]
		if e.epoch == epoch {
			return false
		}
		e.epoch = epoch
	}
	return true
}

// indexRecurs is recurs's answer for a row index into a relation of rows
// rows: 1 if some row recurs in a later run, 2 if none does.
func indexRecurs(idx []int32, rows int) int8 {
	seen := make([]bool, rows)
	for i := 0; i < len(idx); {
		r := idx[i]
		if seen[r] {
			return 1
		}
		seen[r] = true
		for i++; i < len(idx) && idx[i] == r; i++ {
		}
	}
	return 2
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
func appendColumn(buf []byte, cols *wireCols, stats []colStats, c int, p colPlan, sc *wireScratch) []byte {
	col := cols.vals[c]
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
	sc := getScratch()
	defer putScratch(sc)
	d, t, n, err := openSection(r, sc, presentTable, maxRows, maxCells)
	if t == nil || err != nil {
		return nil, err
	}
	w := len(t.Attrs)
	if cap(sc.cells) < n*w {
		sc.cells = make([]int64, n*w)
	}
	d.verify = true
	if cap(sc.stats) < w {
		sc.stats = make([]colStats, w)
	}
	d.cols = sc.cols.plain(sc.cells[:n*w], w)
	for c := 0; c < w && n > 0; c++ {
		if err := d.column(sc.stats[:w], c, sc); err != nil {
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
// to be the writer's own choice of encoding. cols are the columns decoded
// into: a plain table's cells, or a late table's own vectors, its named
// columns gathered only where a determinant reads them (late.go).
type wireDecoder struct {
	Cursor
	verify bool
	cols   *wireCols
}

// det is all of determinant j, with its statistics: a late table's named
// column, which the reader leaves without either, is gathered into the
// scratch's arena and scanned on the first read of it.
func (d *wireDecoder) det(stats []colStats, j int) []int64 {
	cs := d.cols
	if cs.late != nil && cs.named[j] >= 0 && cs.vals[j] == nil {
		col := cs.take(nil, cs.n)[:cs.n]
		cs.late.Gather(col, cs.named[j])
		cs.vals[j] = col
		stats[j] = colStats{}
		stats[j].scan(col)
	}
	return cs.vals[j]
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
func (d *wireDecoder) column(stats []colStats, c int, sc *wireScratch) error {
	if d.Pos == len(d.B) {
		return io.ErrUnexpectedEOF
	}
	enc := d.B[d.Pos]
	d.Pos++
	col, st := d.cols.vals[c], &stats[c]
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
		known.det, err = d.mapColumn(stats, c, sc)
	case encChain:
		known.det, err = d.chainColumn(stats, c, sc)
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
	if p := planColumn(d.cols, stats, c, sc, known); p.enc != enc || p.dict != dict || enc >= encMap && p.det != known.det {
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
func (d *wireDecoder) mapColumn(stats []colStats, c int, sc *wireScratch) (int, error) {
	j, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if j >= uint64(c) {
		return 0, fmt.Errorf("column %d cannot determine column %d: not earlier", j, c)
	}
	det := d.det(stats, int(j))
	if stats[j].mapped || stats[j].index || uint64(stats[j].max)-uint64(stats[j].min) >= maxDictSpan {
		return 0, fmt.Errorf("column %d cannot determine column %d: map-encoded, a row index or too wide", j, c)
	}
	dst := &stats[j]
	span := uint64(dst.max) - uint64(dst.min)
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
	col, st := d.cols.vals[c], &stats[c]
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
func (d *wireDecoder) chainColumn(stats []colStats, c int, sc *wireScratch) (int, error) {
	j, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if j >= uint64(c) {
		return 0, fmt.Errorf("column %d cannot chain column %d: not earlier", j, c)
	}
	det := d.det(stats, int(j))
	if stats[j].index || uint64(stats[j].max)-uint64(stats[j].min) >= maxDictSpan {
		return 0, fmt.Errorf("column %d cannot chain column %d: a row index or too wide", j, c)
	}
	dst := &stats[j]
	span := uint64(dst.max) - uint64(dst.min)
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
	col := d.cols.vals[c]
	for i, k := 0, 0; i < len(det); i = k {
		k = runEnd(det, i)
		e := &image[uint64(det[i])-uint64(dst.min)]
		copy(col[i:k], vals[e.at:])
	}
	return int(j), nil
}
