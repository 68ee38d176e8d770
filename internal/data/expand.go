package data

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	mbits "math/bits"
	"slices"
)

// Join expansions. The engine emits a join's rows as a nested loop: each
// surviving row of the probe input in scan order, then the build input's
// surviving rows of the probe row's key, in scan order, and so on through
// every join of a block; it records the loop with the output (Late.Levels).
// Both ends of a dispatch hold the relations, so the surviving rows of each
// input and the columns that key each later input fix every index vector of
// such an output (rule J1 prices a join from its keys alone): an expanded
// late section (late.go) sends those in place of its index columns, and the
// reader rebuilds the vectors by running the loop. The writer runs the loop
// against every index vector first, and sends the index form where it
// differs.
//
// An expansion has one level per input. Level 0 is the input whose rows lead
// every output row; level k > 0 holds the rows of its input whose column Key
// equals column FromCol of level From's current row, From < k, or — where
// the join key is no input's column but a transform's output — the current
// value of a rider. The output is the nested loop over the levels, each
// level's matches in ascending row order; a level's surviving rows are the
// rows of its input the output reads, ascending. A selection, one input read
// in scan order, is its surviving rows. A step is a row a level takes. Dense
// surviving rows cross as a bitmap of the relation the reader holds.
//
// A rider is a plain column whose value changes only where a level j <
// levels-1, or one before it, takes a step: the section carries its value
// once a step of level j, in loop order, and each row takes its step's. A
// transform's output over the leading inputs' rows is one (§3.2.2), and so
// is a column a later level is keyed by. A step that makes no row takes a
// value no surviving row of the level the rider keys holds (0 if none).

// errExpansion reports an expanded late section that does not describe its
// rows: a level that names no input or one named twice, a key over a level
// that is not earlier or a column no earlier level carries, a rider that is
// not a plain column or is one twice, more surviving rows than the section
// has rows, survivors past the bytes left or in the layout the writer would
// not have chosen, a rider whose values are not one a step, an expansion
// that makes more or fewer rows than the section declares, or takes more
// than levels × rows steps, and presence byte 3, the retired form.
var errExpansion = errors.New("data: a join expansion does not make the declared rows")

// level is one input of an expansion.
type level struct {
	grp  int // the section's group that names the input
	src  *Table
	rows []int32 // the surviving rows, ascending
	bits []byte  // the writer's: rows as a bitmap of src's rows (survive)
	// Key, From and FromCol key a level past the first; its In is unused.
	LateLevel
	// byKey is rows in ascending (key value, row) order, keys their key
	// values: the rows of one value are contiguous. Where the values span
	// few more slots than there are rows, at[v-min] is where value v's
	// rows start, and at[v-min+1] where they end; otherwise at is empty.
	byKey []int32
	keys  []int64
	at    []int32
	min   int64
	// The loop's: the level's matches for the rows before it, the next one
	// it takes, and the one it took last.
	cand []int32
	next int
	cur  int32
}

// rider is a plain column of an expanded section sent once a step of a
// level: col is the table's column and vals its values, the writer's to read
// and the reader's to fill; stream is the value at each step, in loop order;
// dead, the writer's, is what a step that makes no row takes. The loop's
// are val, the current value, and used, the values of stream taken.
type rider struct {
	col, level   int
	vals, stream []int64
	dead, val    int64
	used         int
}

// riderOf is the place in rs of column c's rider, or -1.
func riderOf(rs []rider, c int) int {
	return slices.IndexFunc(rs, func(r rider) bool { return r.col == c })
}

// index sorts the level's rows by key, for match, into the level's own
// vectors, reusing them.
func (l *level) index() {
	rows, key := l.src.Rows, l.Key
	l.byKey = append(l.byKey[:0], l.rows...)
	slices.SortFunc(l.byKey, func(a, b int32) int {
		return cmp.Or(cmp.Compare(rows[a][key], rows[b][key]), cmp.Compare(a, b))
	})
	l.keys, l.at = l.keys[:0], l.at[:0]
	for _, r := range l.byKey {
		l.keys = append(l.keys, rows[r][key])
	}
	if len(l.keys) == 0 {
		return
	}
	l.min = l.keys[0]
	if span := uint64(l.keys[len(l.keys)-1]) - uint64(l.min); span < uint64(4*len(l.keys)+64) {
		l.at = grow(l.at, int(span)+2)
		clear(l.at)
		for _, k := range l.keys {
			l.at[uint64(k)-uint64(l.min)+1]++
		}
		for i := 1; i < len(l.at); i++ {
			l.at[i] += l.at[i-1]
		}
	}
}

// match is the level's rows of key value v, ascending.
func (l *level) match(v int64) []int32 {
	if len(l.at) > 0 {
		if i := uint64(v) - uint64(l.min); i < uint64(len(l.at)-1) {
			return l.byKey[l.at[i]:l.at[i+1]]
		}
		return nil
	}
	lo, _ := slices.BinarySearch(l.keys, v)
	hi := lo
	for hi < len(l.keys) && l.keys[hi] == v {
		hi++
	}
	return l.byKey[lo:hi]
}

// absent is the least value ≥ 0 that no surviving row takes as its key.
func (l *level) absent() int64 {
	v := int64(0)
	for i := 0; i < len(l.keys) && l.keys[i] <= v; i++ {
		if l.keys[i] == v {
			v++
		}
	}
	return v
}

// errMismatch is a writer's expansion that differs from the index vectors.
var errMismatch = errors.New("the expansion differs from the index vectors")

// expand runs the expansion of lv and its riders rs, which must make exactly
// n rows, into idx, one vector of n rows per level, and into each rider's
// vals: it writes them, or with check compares them and returns errMismatch
// at the first row that differs. With check it first writes each rider's
// stream: at a step, the vals of the next row where that row is the step's,
// and dead where the step makes no row.
func expand(lv []level, rs []rider, n int, idx [][]int32, check bool) error {
	m := len(lv)
	lv[0].cand, lv[0].next = lv[0].rows, 0
	for i := range rs {
		rs[i].used = 0
	}
	// Where every surviving row is one the table reads, as the writer's are,
	// every step but those of an entry that makes no row leads to a row of
	// the table, and a level takes at most one step a row; a loop whose inner
	// levels match nothing makes no rows however long it runs.
	budget := m * n
	pos, k := 0, 0
	for {
		l := &lv[k]
		if l.next == len(l.cand) {
			if k == 0 {
				break
			}
			k--
			continue
		}
		if budget--; budget < 0 {
			return fmt.Errorf("%w: more than %d steps for %d rows", errExpansion, m*n, n)
		}
		l.cur = l.cand[l.next]
		l.next++
		for i := range rs {
			r := &rs[i]
			if r.level != k {
				continue
			}
			if check {
				if len(r.stream) == n {
					return errMismatch // more values than rows, which no reader takes
				}
				v := r.dead // unless levels 0 to k lead row pos
				for j := 0; pos < n && idx[j][pos] == lv[j].cur; j++ {
					if j == k {
						v = r.vals[pos]
						break
					}
				}
				r.stream = append(r.stream, v)
			}
			if r.used == len(r.stream) {
				return fmt.Errorf("%w: column %d's values end at %d steps", errExpansion, r.col, r.used)
			}
			r.val = r.stream[r.used]
			r.used++
		}
		if k < m-1 {
			k++
			l := &lv[k]
			var v int64
			if l.From == k {
				v = rs[riderOf(rs, l.FromCol)].val
			} else {
				v = lv[l.From].src.Rows[lv[l.From].cur][l.FromCol]
			}
			l.cand, l.next = l.match(v), 0
			continue
		}
		if pos == n {
			return fmt.Errorf("%w: more than the %d rows declared", errExpansion, n)
		}
		if check {
			for j := range lv {
				if idx[j][pos] != lv[j].cur {
					return errMismatch
				}
			}
			for i := range rs {
				if rs[i].vals[pos] != rs[i].val {
					return errMismatch
				}
			}
		} else {
			for j := range lv {
				idx[j][pos] = lv[j].cur
			}
			for i := range rs {
				rs[i].vals[pos] = rs[i].val
			}
		}
		pos++
	}
	if pos < n {
		return fmt.Errorf("%w: %d rows of the %d declared", errExpansion, pos, n)
	}
	for _, r := range rs {
		if r.used != len(r.stream) {
			return fmt.Errorf("%w: column %d has %d values for %d steps", errExpansion, r.col, len(r.stream), r.used)
		}
	}
	return nil
}

// findExpansion returns the expansion of t's index vectors over the inputs
// of its named groups, in the order of its loop's levels, and its riders,
// or nil where t has no loop, its loop does not name each named group's
// input once, keys a level by a column its relation or an earlier level's
// lacks, or does not make t's rows. It takes each level's surviving rows and
// each plain column that changes only where a level before the last does as
// a rider, expands the levels and compares.
func findExpansion(t *Late, groups []lateGroup, sc *wireScratch) ([]level, []rider) {
	grp := make([]int, len(t.Ins)) // each input's named group, plus one
	m := 0
	for g, gr := range groups {
		if gr.in >= 0 {
			grp[gr.in], m = g+1, m+1
		}
	}
	if m == 0 || len(t.Levels) != m {
		return nil, nil
	}
	sc.lv = grow(sc.lv, m)
	lv, idx := sc.lv, make([][]int32, m)
	for k, tl := range t.Levels {
		if tl.In < 0 || tl.In >= len(grp) || grp[tl.In] == 0 {
			return nil, nil
		}
		l := &lv[k]
		l.grp, l.src, l.LateLevel, grp[tl.In] = grp[tl.In]-1, t.Ins[tl.In].Src, tl, 0
		if k > 0 && (l.Key < 0 || l.Key >= len(l.src.Attrs) || l.From < 0 || l.From > k ||
			l.From < k && (l.FromCol < 0 || l.FromCol >= len(lv[l.From].src.Attrs))) {
			return nil, nil
		}
		idx[k] = t.Ins[tl.In].Idx
		l.survive(idx[k], sc)
		if k > 0 {
			l.index()
		}
	}
	// A column rides the first level j such that a level up to j changes
	// wherever the column does.
	var rs []rider
	for c, lc := range t.Cols {
		if lc.In >= 0 {
			continue
		}
		j := 0
		for r := 1; r < t.N && j < m-1; r++ {
			for lc.Vals[r] != lc.Vals[r-1] && j < m-1 && !slices.ContainsFunc(idx[:j+1], func(ix []int32) bool { return ix[r] != ix[r-1] }) {
				j++
			}
		}
		if j < m-1 {
			if len(rs) == len(sc.streams) {
				sc.streams = append(sc.streams, nil)
			}
			rs = append(rs, rider{col: c, level: j, vals: lc.Vals, stream: sc.streams[len(rs)][:0]})
		}
	}
	// A level keyed by a plain column reads its rider's value.
	keys := make([]bool, len(rs))
	for k := 1; k < m; k++ {
		if l := &lv[k]; l.From == k {
			i := riderOf(rs, l.FromCol)
			if i < 0 || rs[i].level >= k {
				return nil, nil
			}
			rs[i].dead, keys[i] = l.absent(), true
		}
	}
	err := expand(lv, rs, t.N, idx, true)
	for i, r := range rs {
		sc.streams[i] = r.stream
	}
	if err != nil {
		return nil, nil
	}
	// A rider that keys no level rides only where its values, with its
	// column and their count, take fewer bytes than its column as planned:
	// the section's raw bytes, not what they deflate to.
	kept := rs[:0]
	for i, r := range rs {
		if !keys[i] {
			_, own := planLate(r.stream, sc)
			if _, whole := planLate(r.vals, sc); own.size+uvarintLen(uint64(r.col))+uvarintLen(uint64(len(r.stream))) >= whole.size {
				continue
			}
		}
		kept = append(kept, r)
	}
	return lv, kept
}

// survive marks the rows ix reads, a byte a row in sc.seen, packs the marks
// into l.bits (row i is bit i%8 of byte i/8) and takes them as l.rows.
func (l *level) survive(ix []int32, sc *wireScratch) {
	l.bits = grow(l.bits, (len(l.src.Rows)+7)/8)
	sc.seen = grow(sc.seen, 8*len(l.bits))
	clear(sc.seen)
	for _, i := range ix {
		sc.seen[i] = 1
	}
	for j := range l.bits { // the byte of mark k lands on bit 56+k
		l.bits[j] = byte(binary.LittleEndian.Uint64(sc.seen[8*j:]) * 0x0102040810204080 >> 56)
	}
	l.rows = bitRows(l.rows[:0], l.bits)
}

// bitRows appends to dst the rows bits marks, ascending.
func bitRows(dst []int32, bits []byte) []int32 {
	for i, b := range bits {
		for ; b != 0; b &= b - 1 {
			dst = append(dst, int32(8*i+mbits.TrailingZeros8(b)))
		}
	}
	return dst
}

// gapBytes is what rows take as a gap list: their count plus one, then the
// first row and each later one's gap from the one before, less one.
func gapBytes(rows []int32) int {
	size, prev := uvarintLen(uint64(len(rows)+1)), int32(-1)
	for _, r := range rows {
		size, prev = size+uvarintLen(uint64(r-prev-1)), r
	}
	return size
}

// appendExpansion appends the levels of an expanded section over ng groups:
// each level's group plus ng times its riders, its key past the first level
// (a keying rider by its column), its surviving rows as a gap list or, where
// that takes no fewer bytes, as 0 and its bitmap, and its riders, each its
// column, its count of values and a late section's column of them.
func appendExpansion(buf []byte, lv []level, rs []rider, ng int, sc *wireScratch) []byte {
	for k, l := range lv {
		riders := 0
		for _, r := range rs {
			if r.level == k {
				riders++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(l.grp+ng*riders))
		if k > 0 {
			buf = binary.AppendUvarint(buf, uint64(l.Key))
			buf = binary.AppendUvarint(buf, uint64(l.From))
			buf = binary.AppendUvarint(buf, uint64(l.FromCol))
		}
		at, prev := len(buf), int32(-1)
		buf = binary.AppendUvarint(buf, uint64(len(l.rows)+1))
		for _, r := range l.rows {
			buf, prev = binary.AppendUvarint(buf, uint64(r-prev-1)), r
		}
		if len(buf)-at >= 1+len(l.bits) {
			buf = append(append(buf[:at], 0), l.bits...)
		}
		for _, r := range rs {
			if r.level == k {
				buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(r.col)), uint64(len(r.stream)))
				buf = appendLateColumn(buf, r.stream, sc)
			}
		}
	}
	return buf
}

// expansion reads the levels of an expanded section of l.N rows over its
// groups, one for each named group, and runs them into each group's index,
// the inputs of l in group order, and into each rider's column, which it
// sets in l, checking every reference against the groups, their relations
// and the plain columns, and every count against the section's rows. It
// sets the levels as l's loop.
func (d *wireDecoder) expansion(l *Late, groups []lateGroup, named int, sc *wireScratch) error {
	n, ng := l.N, uint64(len(groups))
	if named == 0 {
		return fmt.Errorf("%w: an expansion of no inputs", errExpansion)
	}
	plain := make([]bool, len(l.Cols)) // a plain column no rider is yet
	for _, grp := range groups {
		for _, c := range grp.cols {
			plain[c] = grp.src == nil
		}
	}
	var rs []rider
	sc.lv = grow(sc.lv, named)
	lv := sc.lv
	levelOf := make([]int, len(groups)) // a group's level, plus one
	for k := range lv {
		g, err := d.uvarint("expansion group")
		if err != nil {
			return err
		}
		riders := g / ng
		if g %= ng; groups[g].src == nil || levelOf[g] != 0 {
			return fmt.Errorf("%w: level %d is group %d of %d, which is plain or an earlier level", errExpansion, k, g, ng)
		}
		levelOf[g] = k + 1
		lk := &lv[k]
		lk.grp, lk.src = int(g), groups[g].src
		var key, from, fromCol uint64
		if k > 0 {
			if err := d.uvarints("expansion key", &key, &from, &fromCol); err != nil {
				return err
			}
			if key >= uint64(len(lk.src.Attrs)) {
				return fmt.Errorf("%w: level %d keys on column %d of relation %q, which has %d", ErrUnresolved, k, key, lk.src.Rel, len(lk.src.Attrs))
			}
			switch {
			case from > uint64(k):
				return fmt.Errorf("%w: level %d is keyed by level %d, not an earlier one", errExpansion, k, from)
			case from == uint64(k) && riderOf(rs, int(fromCol)) < 0:
				return fmt.Errorf("%w: level %d is keyed by column %d, which no earlier level carries", errExpansion, k, fromCol)
			case from < uint64(k) && fromCol >= uint64(len(lv[from].src.Attrs)):
				src := lv[from].src
				return fmt.Errorf("%w: level %d is keyed by column %d of relation %q, which has %d", ErrUnresolved, k, fromCol, src.Rel, len(src.Attrs))
			}
		}
		lk.LateLevel = LateLevel{Key: int(key), From: int(from), FromCol: int(fromCol)}
		if lk.rows, err = d.survivors(lk.src, n); err != nil {
			return fmt.Errorf("level %d: %w", k, err)
		}
		for ; riders > 0; riders-- {
			var col, count uint64
			if err := d.uvarints("rider", &col, &count); err != nil {
				return err
			}
			if col >= uint64(len(l.Cols)) || !plain[col] || count == 0 || count > uint64(n) {
				return fmt.Errorf("%w: level %d carries column %d of %d, a rider or not plain, in %d values", errExpansion, k, col, len(l.Cols), count)
			}
			plain[col] = false
			r := rider{col: int(col), level: k, vals: make([]int64, n), stream: make([]int64, count)}
			if err := d.column(r.stream, sc); err != nil {
				return fmt.Errorf("data: column %d's values: %w", col, err)
			}
			l.Cols[col] = LateCol{In: -1, Vals: r.vals}
			rs = append(rs, r)
		}
		if k > 0 {
			lk.index()
		}
	}
	idx := make([][]int32, named)
	for k := range idx {
		idx[k] = make([]int32, n)
	}
	if err := expand(lv, rs, n, idx, false); err != nil {
		return err
	}
	l.Levels = make([]LateLevel, named)
	for g, grp := range groups {
		if grp.src != nil {
			k := levelOf[g] - 1
			l.Levels[k], l.Levels[k].In = lv[k].LateLevel, len(l.Ins)
			l.Ins = append(l.Ins, LateInput{Src: grp.src, Idx: idx[k]})
		}
	}
	return nil
}

// survivors reads a level's surviving rows of src, at most n of them, in
// the layout its writer chose: a bitmap of src's rows where that takes no
// more bytes than the gap list, and otherwise the gap list.
func (d *wireDecoder) survivors(src *Table, n int) ([]int32, error) {
	count, err := d.uvarint("survivor count")
	if err != nil {
		return nil, err
	}
	rel, left := len(src.Rows), uint64(len(d.B)-d.Pos)
	bitmap, bits := 1+(rel+7)/8, []byte(nil)
	if count == 0 {
		if uint64(bitmap-1) > left {
			return nil, fmt.Errorf("%w: a bitmap of %d bytes in %d", errExpansion, bitmap-1, left)
		}
		bits, d.Pos = d.B[d.Pos:d.Pos+bitmap-1:d.Pos+bitmap-1], d.Pos+bitmap-1
		for _, b := range bits {
			count += uint64(mbits.OnesCount8(b))
		}
		if rel%8 != 0 && bits[len(bits)-1]>>(rel%8) != 0 {
			return nil, fmt.Errorf("%w: a surviving row past the %d of relation %q", ErrUnresolved, rel, src.Rel)
		}
	} else if count--; count > left { // a listed survivor costs a byte or more
		return nil, fmt.Errorf("%w: %d surviving rows in %d bytes", errExpansion, count, left)
	}
	if count > uint64(n) {
		return nil, fmt.Errorf("%w: %d surviving rows for %d rows", errExpansion, count, n)
	}
	rows := bitRows(make([]int32, 0, count), bits)
	for next := uint64(0); len(rows) < int(count); { // next: the least row the next may be
		u, err := d.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("data: survivor %d: %w", len(rows), err)
		}
		if next >= uint64(rel) || u >= uint64(rel)-next {
			return nil, fmt.Errorf("%w: a surviving row past the %d of relation %q", ErrUnresolved, rel, src.Rel)
		}
		rows, next = append(rows, int32(next+u)), next+u+1
	}
	if gaps := gapBytes(rows); gaps >= bitmap != (bits != nil) {
		return nil, fmt.Errorf("%w: %d surviving rows take %d bytes as a gap list and %d as a bitmap, and came as the other", errExpansion, len(rows), gaps, bitmap)
	}
	return rows, nil
}
