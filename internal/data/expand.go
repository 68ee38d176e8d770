package data

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Join expansions. The engine emits a join's rows as a nested loop: each
// surviving row of the probe input in scan order, then the build input's
// surviving rows of the probe row's key, in scan order, and so on through
// every join of a block. Both ends of a dispatch hold the relations, so the
// surviving rows of each input and the columns that key each later input fix
// every index vector of such an output (rule J1 prices a join from its keys
// alone): an expanded late section (late.go) sends those in place of its
// index columns, and the reader rebuilds the vectors by running the loop.
//
// An expansion has one level per input. Level 0 is the input whose rows lead
// every output row; level k > 0 holds the rows of its input whose column key
// equals column fromCol of level from's current row, from < k. The output is
// the nested loop over the levels, each level's matches in ascending row
// order; a level's surviving rows are the rows of its input the output reads,
// ascending. A selection, one input read in scan order, is its surviving rows.

// errExpansion reports an expanded late section that does not describe its
// rows: a level that names no input or one named twice, a key over a level
// that is not earlier, more surviving rows than the section has rows, or an
// expansion that makes more or fewer rows than the section declares, or
// takes more than levels × rows steps.
var errExpansion = errors.New("data: a join expansion does not make the declared rows")

// level is one input of an expansion.
type level struct {
	grp  int // the section's group that names the input
	src  *Table
	rows []int32 // the surviving rows, ascending
	// key, from and fromCol key a level past the first: its rows whose
	// column key equals column fromCol of level from's current row.
	key, from, fromCol int
	// byKey is rows in ascending (key value, row) order, keys their key
	// values: the rows of one value are contiguous. Where the values span
	// few more slots than there are rows, at[v-min] is where value v's
	// rows start, and at[v-min+1] where they end.
	byKey []int32
	keys  []int64
	at    []int32
	min   int64
}

// index sorts the level's rows by key, for match.
func (l *level) index() {
	type pair struct {
		k int64
		r int32
	}
	pairs := make([]pair, len(l.rows))
	for i, r := range l.rows {
		pairs[i] = pair{l.src.Rows[r][l.key], r}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.r, b.r)
	})
	l.byKey, l.keys = make([]int32, len(pairs)), make([]int64, len(pairs))
	for i, p := range pairs {
		l.byKey[i], l.keys[i] = p.r, p.k
	}
	if len(pairs) == 0 {
		return
	}
	l.min = pairs[0].k
	if span := uint64(pairs[len(pairs)-1].k) - uint64(l.min); span < uint64(4*len(pairs)+64) {
		l.at = make([]int32, span+2)
		for _, p := range pairs {
			l.at[uint64(p.k)-uint64(l.min)+1]++
		}
		for i := 1; i < len(l.at); i++ {
			l.at[i] += l.at[i-1]
		}
	}
}

// match is the level's rows of key value v, ascending.
func (l *level) match(v int64) []int32 {
	if l.at != nil {
		if i := uint64(v) - uint64(l.min); i < uint64(len(l.at)-1) {
			return l.byKey[l.at[i]:l.at[i+1]]
		}
		return nil
	}
	lo, found := slices.BinarySearch(l.keys, v)
	if !found {
		return nil
	}
	hi := lo + 1
	for hi < len(l.keys) && l.keys[hi] == v {
		hi++
	}
	return l.byKey[lo:hi]
}

// errMismatch is a writer's expansion that differs from the index vectors.
var errMismatch = errors.New("the expansion differs from the index vectors")

// expand runs the expansion of lv, which must make exactly n rows, into
// idx, one vector of n rows per level: it writes them, or with check
// compares them and returns errMismatch at the first row that differs.
func expand(lv []level, n int, idx [][]int32, check bool) error {
	m := len(lv)
	cur := make([]int32, m)    // each level's current row
	cand := make([][]int32, m) // each level's matches for the rows before it
	at := make([]int, m)       // the next match each level takes
	cand[0] = lv[0].rows
	// A step is a row a level takes. Where every surviving row is one the
	// table reads, as the writer's are, every step leads to a row of the
	// table, and a level takes at most one step a row; a loop whose inner
	// levels match nothing makes no rows however long it runs.
	budget := m * n
	pos, k := 0, 0
	for {
		if at[k] == len(cand[k]) {
			if k == 0 {
				break
			}
			k--
			continue
		}
		if budget--; budget < 0 {
			return fmt.Errorf("%w: more than %d steps for %d rows", errExpansion, m*n, n)
		}
		cur[k] = cand[k][at[k]]
		at[k]++
		if k < m-1 {
			k++
			l := &lv[k]
			cand[k], at[k] = l.match(lv[l.from].src.Rows[cur[l.from]][l.fromCol]), 0
			continue
		}
		if pos == n {
			return fmt.Errorf("%w: more than the %d rows declared", errExpansion, n)
		}
		if check {
			for j, r := range cur {
				if idx[j][pos] != r {
					return errMismatch
				}
			}
		} else {
			for j, r := range cur {
				idx[j][pos] = r
			}
		}
		pos++
	}
	if pos < n {
		return fmt.Errorf("%w: %d rows of the %d declared", errExpansion, pos, n)
	}
	return nil
}

// findExpansion returns the expansion of t's index vectors over the inputs
// of its named groups, in the order of the levels, or nil where they are not
// one. It finds the levels (searchLevels) over the first expandHead rows,
// which rules most other tables out for little, and then over all of them;
// it takes each level's surviving rows, expands the levels and compares.
func findExpansion(t *Late, groups []lateGroup, sc *wireScratch) []level {
	if t.N > expandHead && searchLevels(t, groups, expandHead, sc) == nil {
		return nil
	}
	lv := searchLevels(t, groups, t.N, sc)
	if lv == nil {
		return nil
	}
	idx := make([][]int32, len(lv))
	for k := range lv {
		idx[k] = t.Ins[groups[lv[k].grp].in].Idx
		lv[k].rows = survivors(idx[k], len(lv[k].src.Rows))
		if k > 0 {
			lv[k].index()
		}
	}
	if expand(lv, t.N, idx, true) != nil {
		return nil
	}
	return lv
}

// expandHead is the rows findExpansion's first search reads.
const expandHead = 1 << 12

// searchLevels orders and keys the inputs of t's named groups over its
// first n rows, or returns nil. Level by level, it takes the first input in
// group order whose index ascends within every run of the rows the earlier
// levels share and, past the first level, whose column some earlier level's
// column equals on every row (the first such pair of columns, by level,
// then its column, then the input's). Every row it reads of an index or a
// relation is charged to a budget of mapWork × levels × n: past it, there
// are no levels.
func searchLevels(t *Late, groups []lateGroup, n int, sc *wireScratch) []level {
	var named []int
	for g, grp := range groups {
		if grp.in >= 0 {
			named = append(named, g)
		}
	}
	m := len(named)
	if m == 0 {
		return nil
	}
	budget := mapWork * m * n
	// starts[r]: row r reads another row than row r-1 at some level so far.
	if cap(sc.starts) < n {
		sc.starts = make([]bool, n)
	}
	starts := sc.starts[:n]
	clear(starts)
	lv := make([]level, 0, m)
	idx := make([][]int32, 0, m)
	taken := make([]bool, len(groups))
	for len(lv) < m {
		// With one input left, only findExpansion's comparison decides.
		last := len(lv) == m-1
		found := false
		for _, g := range named {
			if taken[g] || budget <= 0 {
				continue
			}
			in := t.Ins[groups[g].in].Idx[:n]
			ascends := true
			for r := 1; r < n && ascends && !last; r++ {
				ascends = starts[r] || in[r] >= in[r-1]
			}
			budget -= n
			if !ascends {
				continue
			}
			l := level{grp: g, src: t.Ins[groups[g].in].Src}
			if len(lv) > 0 && !keyOf(&l, in, lv, idx, &budget) {
				continue
			}
			for r := 1; r < n && !last; r++ {
				starts[r] = starts[r] || in[r] != in[r-1]
			}
			lv, idx = append(lv, l), append(idx, in)
			taken[g], found = true, true
			break
		}
		if !found {
			return nil
		}
	}
	return lv
}

// keyOf finds the columns that key level l, whose index is ix, over the
// earlier levels lv and their indexes: the first column of a level, and of
// l's relation, equal on every row — compared where either row changes.
// Each row is charged to budget.
func keyOf(l *level, ix []int32, lv []level, idx [][]int32, budget *int) bool {
	for j := range lv {
		jx := idx[j]
		for c := range lv[j].src.Attrs {
			for key := range l.src.Attrs {
				r := 0
				for ; r < len(ix) && *budget > 0; r++ {
					*budget--
					if r > 0 && ix[r] == ix[r-1] && jx[r] == jx[r-1] {
						continue
					}
					if l.src.Rows[ix[r]][key] != lv[j].src.Rows[jx[r]][c] {
						break
					}
				}
				if r == len(ix) {
					l.key, l.from, l.fromCol = key, j, c
					return true
				}
				if *budget <= 0 {
					return false
				}
			}
		}
	}
	return false
}

// survivors is the rows of a relation of rows rows that ix reads, ascending.
func survivors(ix []int32, rows int) []int32 {
	seen := make([]bool, rows)
	for _, i := range ix {
		seen[i] = true
	}
	var out []int32
	for i, s := range seen {
		if s {
			out = append(out, int32(i))
		}
	}
	return out
}

// appendExpansion appends the levels of an expanded section: each level's
// group, its key past the first level, and its surviving rows, the first as
// a row and each later one as its gap from the one before, less one.
func appendExpansion(buf []byte, lv []level) []byte {
	for k, l := range lv {
		buf = binary.AppendUvarint(buf, uint64(l.grp))
		if k > 0 {
			buf = binary.AppendUvarint(buf, uint64(l.key))
			buf = binary.AppendUvarint(buf, uint64(l.from))
			buf = binary.AppendUvarint(buf, uint64(l.fromCol))
		}
		buf = binary.AppendUvarint(buf, uint64(len(l.rows)))
		prev := int32(-1)
		for _, r := range l.rows {
			buf = binary.AppendUvarint(buf, uint64(r-prev-1))
			prev = r
		}
	}
	return buf
}

// expansion reads the levels of an expanded section of n rows over its
// groups, one for each named group, and runs them into each group's index:
// the inputs of l, in group order. Every reference is checked against the
// groups and their relations, and no level holds more survivors than the
// section has rows or bytes left.
func (d *wireDecoder) expansion(l *Late, groups []lateGroup, named int) error {
	n := l.N
	if named == 0 {
		return fmt.Errorf("%w: an expansion of no inputs", errExpansion)
	}
	lv := make([]level, named)
	levelOf := make([]int, len(groups)) // a group's level, plus one
	for k := range lv {
		g, err := d.uvarint("expansion group")
		if err != nil {
			return err
		}
		if g >= uint64(len(groups)) || groups[g].src == nil || levelOf[g] != 0 {
			return fmt.Errorf("%w: level %d is group %d of %d, which is plain or an earlier level", errExpansion, k, g, len(groups))
		}
		levelOf[g] = k + 1
		lk := &lv[k]
		lk.grp, lk.src = int(g), groups[g].src
		if k > 0 {
			key, err := d.uvarint("expansion key")
			if err != nil {
				return err
			}
			from, err := d.uvarint("expansion keying level")
			if err != nil {
				return err
			}
			fromCol, err := d.uvarint("expansion keying column")
			if err != nil {
				return err
			}
			if key >= uint64(len(lk.src.Attrs)) {
				return fmt.Errorf("%w: level %d keys on column %d of relation %q, which has %d", ErrUnresolved, k, key, lk.src.Rel, len(lk.src.Attrs))
			}
			if from >= uint64(k) {
				return fmt.Errorf("%w: level %d is keyed by level %d, not an earlier one", errExpansion, k, from)
			}
			if src := lv[from].src; fromCol >= uint64(len(src.Attrs)) {
				return fmt.Errorf("%w: level %d is keyed by column %d of relation %q, which has %d", ErrUnresolved, k, fromCol, src.Rel, len(src.Attrs))
			}
			lk.key, lk.from, lk.fromCol = int(key), int(from), int(fromCol)
		}
		if lk.rows, err = d.survivors(lk.src, n); err != nil {
			return fmt.Errorf("level %d: %w", k, err)
		}
		if k > 0 {
			lk.index()
		}
	}
	idx := make([][]int32, named)
	for k := range idx {
		idx[k] = make([]int32, n)
	}
	if err := expand(lv, n, idx, false); err != nil {
		return err
	}
	for g, grp := range groups {
		if grp.src != nil {
			l.Ins = append(l.Ins, LateInput{Src: grp.src, Idx: idx[levelOf[g]-1]})
		}
	}
	return nil
}

// survivors reads a level's surviving rows of src, at most n of them.
func (d *wireDecoder) survivors(src *Table, n int) ([]int32, error) {
	count, err := d.uvarint("survivor count")
	if err != nil {
		return nil, err
	}
	// A survivor costs at least a byte.
	if left := uint64(len(d.B) - d.Pos); count > uint64(n) || count > left {
		return nil, fmt.Errorf("%w: %d surviving rows for %d rows in %d bytes", errExpansion, count, n, left)
	}
	rows := make([]int32, count)
	next := uint64(0) // the least row the next survivor may be
	for i := range rows {
		u, err := d.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("data: survivor %d: %w", i, err)
		}
		if next >= uint64(len(src.Rows)) || u >= uint64(len(src.Rows))-next {
			return nil, fmt.Errorf("%w: a surviving row past the %d of relation %q", ErrUnresolved, len(src.Rows), src.Rel)
		}
		rows[i] = int32(next + u)
		next += u + 1
	}
	return rows, nil
}
