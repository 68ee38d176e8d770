package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// joinLate generates a late table whose index vectors are a join in the
// engine's order: a nested loop over 1–4 inputs, each a relation of 1–40
// rows over small domains (some read twice), filtered, every input past the
// first keyed by a column of an earlier one or, if keyed and at even odds,
// by a transform's output over the earlier inputs' rows — a plain column
// whose value at some entries no row of the input holds; its columns
// interleave each input's named columns, in any order, with plain ones, some
// of them functions of a named column. If moved, two rows that read other
// input rows trade places, and the table is no expansion.
func joinLate(rng *rand.Rand, moved, keyed bool) *Late {
	for {
		if l := tryJoinLate(rng, moved, keyed); l != nil {
			return l
		}
	}
}

// tryJoinLate is one draw of joinLate, nil if it makes no rows or more
// than 3,000.
func tryJoinLate(rng *rand.Rand, moved, keyed bool) *Late {
	pool := make([]*Table, 1+rng.Intn(3))
	for s := range pool {
		cols := make([][]int64, 1+rng.Intn(3))
		n := 1 + rng.Intn(40)
		for c := range cols {
			domain := 1 + rng.Int63n(6)
			for r := 0; r < n; r++ {
				cols[c] = append(cols[c], rng.Int63n(domain)*7-3)
			}
		}
		pool[s] = source(fmt.Sprintf("R%d", s), cols...)
	}
	m := 1 + rng.Intn(4)
	lv := make([]level, m)
	// transform[k]: level k is keyed by a function of the rows before it, a
	// column of the table.
	transform := make([]bool, m)
	for k := range lv {
		lk := &lv[k]
		lk.src = pool[rng.Intn(len(pool))]
		for r := range lk.src.Rows {
			if rng.Intn(4) > 0 { // the filter
				lk.rows = append(lk.rows, int32(r))
			}
		}
		if k > 0 {
			lk.Key, lk.From = rng.Intn(len(lk.src.Attrs)), rng.Intn(k)
			lk.FromCol = rng.Intn(len(lv[lk.From].src.Attrs))
			transform[k] = keyed && rng.Intn(2) == 0
			lk.index()
		}
	}
	// f is the transform over the rows of the levels before k.
	f := func(cur []int32) int64 {
		h := int64(0)
		for j, r := range cur {
			h = h*31 + lv[j].src.Rows[r][0]
		}
		return (h%6+6)%6*7 - 3
	}
	keys := make([][]int64, m) // each transform's value on each row
	key := make([]int64, m)
	// The nested loop, as the engine runs it, by recursion.
	idx := make([][]int32, m)
	cur := make([]int32, m)
	var walk func(k int) bool
	walk = func(k int) bool {
		if k == m {
			for j, r := range cur {
				idx[j] = append(idx[j], r)
				keys[j] = append(keys[j], key[j])
			}
			return len(idx[0]) <= 3000
		}
		rows := lv[k].rows
		if l := &lv[k]; transform[k] {
			key[k] = f(cur[:k])
			rows = l.match(key[k])
		} else if k > 0 {
			rows = l.match(lv[l.From].src.Rows[cur[l.From]][l.FromCol])
		}
		for _, r := range rows {
			cur[k] = r
			if !walk(k + 1) {
				return false
			}
		}
		return true
	}
	if !walk(0) || len(idx[0]) == 0 {
		return nil
	}
	l := &Late{Rel: "join", N: len(idx[0])}
	if moved {
		for r := 1; r < l.N; r++ {
			if slices.ContainsFunc(idx, func(ix []int32) bool { return ix[r] != ix[r-1] }) {
				for _, ix := range idx {
					ix[r], ix[r-1] = ix[r-1], ix[r]
				}
				break
			}
		}
	}
	// Inputs in a random order, and each input's columns.
	inOf := make([]int, m)
	for in, k := range rng.Perm(m) {
		l.Ins, inOf[k] = append(l.Ins, LateInput{Src: lv[k].src, Idx: idx[k]}), in
	}
	var named []LateCol
	for in := range l.Ins {
		for c := 1 + rng.Intn(3); c > 0; c-- {
			named = append(named, LateCol{In: in, Col: rng.Intn(len(l.Ins[in].Src.Attrs))})
		}
	}
	rng.Shuffle(len(named), func(i, j int) { named[i], named[j] = named[j], named[i] })
	for _, lc := range named {
		if rng.Intn(3) == 0 {
			vals := make([]int64, l.N)
			for r := range vals {
				vals[r] = rng.Int63n(50)
			}
			l.Cols = append(l.Cols, LateCol{In: -1, Vals: vals})
		}
		l.Cols = append(l.Cols, lc)
	}
	for k, t := range transform {
		if t {
			at := rng.Intn(len(l.Cols) + 1)
			l.Cols = slices.Insert(l.Cols, at, LateCol{In: -1, Vals: keys[k]})
		}
	}
	for c := range l.Cols {
		l.Attrs = append(l.Attrs, workflow.Attr{Rel: "join", Col: fmt.Sprintf("c%d", c)})
	}
	// The loop as the walk ran it, a transform's output keying its level.
	for k := range lv {
		ll := LateLevel{In: inOf[k]}
		if k > 0 {
			ll.Key, ll.From, ll.FromCol = lv[k].Key, lv[k].From, lv[k].FromCol
		}
		if transform[k] {
			ll.From = k
			ll.FromCol = slices.IndexFunc(l.Cols, func(lc LateCol) bool { return lc.In < 0 && &lc.Vals[0] == &keys[k][0] })
		}
		l.Levels = append(l.Levels, ll)
	}
	return derived(l, rng)
}

// derived is l with each plain column, at even odds, rewritten as a function
// of an earlier named column, as a transform's output over a joined
// relation is: its values a function of the column's, or of the column's
// value and the row's place in its run. A column that keys a level of l's
// loop keeps its values.
func derived(l *Late, rng *rand.Rand) *Late {
	out := *l
	out.Cols = append([]LateCol(nil), l.Cols...)
	var named []int
	for c, lc := range out.Cols {
		if lc.In >= 0 {
			named = append(named, c)
			continue
		}
		if len(named) == 0 || rng.Intn(2) == 0 {
			continue
		}
		det := make([]int64, l.N)
		l.Gather(det, named[rng.Intn(len(named))])
		counts := rng.Intn(2) == 0
		vals := make([]int64, l.N)
		for r, v := range det {
			vals[r] = (v*2654435761)%1000003 + 7
			if counts {
				for k := r; k > 0 && det[k-1] == v; k-- {
					vals[r] += 7
				}
			}
		}
		if !keysLevel(l, c) {
			out.Cols[c] = LateCol{In: -1, Vals: vals}
		}
	}
	return &out
}

// keysLevel reports whether column c of l keys a level of its loop.
func keysLevel(l *Late, c int) bool {
	for k, ll := range l.Levels {
		if k > 0 && ll.From == k && ll.FromCol == c {
			return true
		}
	}
	return false
}

// LateDB is the relations l reads, by name.
func LateDB(l *Late) map[string]*Table {
	db := make(map[string]*Table)
	for _, in := range l.Ins {
		db[in.Src.Rel] = in.Src
	}
	return db
}

// CheckExpansion writes l as WriteLate does, reads the section back over
// the relations l reads and reports whether it is an expansion and how many
// of its levels a rider keys. Either form must give each input, in group
// order, exactly its index vector, and every column exactly its source, and
// the writer must make the same bytes twice.
func CheckExpansion(l *Late) (expanded bool, keyed int, err error) {
	var got, again bytes.Buffer
	if err := WriteLate(&got, l); err != nil {
		return false, 0, err
	}
	if err := WriteLate(&again, l); err != nil || !bytes.Equal(got.Bytes(), again.Bytes()) {
		return false, 0, fmt.Errorf("the writer made two sections of one table (%v)", err)
	}
	if l.N == 0 {
		return false, 0, nil
	}
	expanded = got.Bytes()[len(tableMagic)] == presentExpanded
	if expanded {
		groups, _ := lateGroups(l)
		lv, _ := findExpansion(l, groups, new(wireScratch))
		for k := 1; k < len(lv); k++ {
			if lv[k].From == k {
				keyed++
			}
		}
	}
	back, err := ReadLate(&got, maxWireCells, LateDB(l))
	if err != nil {
		return expanded, keyed, fmt.Errorf("the section does not read back: %w", err)
	}
	var order []int // l's inputs in group order
	at := make(map[int]int)
	for _, lc := range l.Cols {
		if _, ok := at[lc.In]; lc.In >= 0 && !ok {
			at[lc.In] = len(order)
			order = append(order, lc.In)
		}
	}
	if len(back.Ins) != len(order) {
		return expanded, keyed, fmt.Errorf("%d inputs read back, %d written", len(back.Ins), len(order))
	}
	for k, in := range order {
		if back.Ins[k].Src != l.Ins[in].Src || !slices.Equal(back.Ins[k].Idx, l.Ins[in].Idx) {
			return expanded, keyed, fmt.Errorf("input %d (%s) reads back another index", in, l.Ins[in].Src.Rel)
		}
	}
	for c, lc := range l.Cols {
		bc := back.Cols[c]
		switch {
		case lc.In < 0 && (bc.In >= 0 || !slices.Equal(bc.Vals, lc.Vals)):
			return expanded, keyed, fmt.Errorf("plain column %d reads back other values", c)
		case lc.In >= 0 && (bc.In != at[lc.In] || bc.Col != lc.Col):
			return expanded, keyed, fmt.Errorf("column %d reads back input %d column %d, want %d and %d", c, bc.In, bc.Col, at[lc.In], lc.Col)
		}
	}
	return expanded, keyed, nil
}

// GeneratedLates is the late tables the expansion model test holds the
// writer to: for each of 200 seeds, TestLateTableModel's table, a join in
// the engine's order, that join with two rows moved, and a join some of
// whose levels a transform's output keys.
func GeneratedLates() (names []string, lates []*Late) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names = append(names, fmt.Sprintf("seed %d", seed), fmt.Sprintf("seed %d join", seed), fmt.Sprintf("seed %d join, moved", seed), fmt.Sprintf("seed %d join, keyed", seed))
		lates = append(lates, randomLate(rng), joinLate(rng, false, false), joinLate(rng, true, false), joinLate(rng, false, true))
	}
	return names, lates
}

// expandedSection writes an expanded late section by hand, from the format
// comment in late.go: one column a group, each reading column 0 of rel and
// declaring its row count, nrows rows, and then the expansion and columns,
// rest.
func expandedSection(rel string, declared, nrows uint64, groups int, rest ...byte) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := append([]byte(tableMagic), presentExpanded)
	b = str(b, "Out")
	b = binary.AppendUvarint(b, uint64(groups))
	for g := 0; g < groups; g++ {
		b = str(str(b, rel), "k")
	}
	b = binary.AppendUvarint(b, nrows)
	b = binary.AppendUvarint(b, uint64(groups))
	for g := 0; g < groups; g++ {
		b = binary.AppendUvarint(str(append(b, 1), rel), declared)
	}
	for g := 0; g < groups; g++ {
		b = append(b, byte(g), 0) // column g in group g, rel's column 0
	}
	return append(b, rest...)
}

// hostileExpansions are expanded sections a reader of S (keys 1, 3), D
// (keys 7, 7) and W (20 rows) must refuse, each with the refusal it gets;
// the three with none are honest. A level's survivors are a bitmap of its
// relation — 0, then a byte for every 8 rows — or a gap list — the count
// plus one, then the gaps — whichever is smaller, ties to the bitmap: both
// of S's rows are 0, 0b11.
var hostileExpansions = []struct {
	name    string
	section []byte
	want    error // nil: any error
	refusal string
}{
	{"honest", expandedSection("S", 2, 2, 1, 0, 0, 3), nil, ""},
	{"past the declared rows", expandedSection("D", 2, 3, 2, 0, 0, 3, 1, 0, 0, 0, 0, 3), errExpansion, "more than the 3 rows declared"},
	{"short of the declared rows", expandedSection("D", 2, 5, 2, 0, 0, 3, 1, 0, 0, 0, 0, 3), errExpansion, "4 rows of the 5 declared"},
	{"a survivor past the relation's end", expandedSection("S", 2, 2, 1, 0, 3, 0, 1), ErrUnresolved, `past the 2 of relation "S"`},
	{"a bit past the relation's end", expandedSection("S", 2, 2, 1, 0, 0, 7), ErrUnresolved, `past the 2 of relation "S"`},
	{"a bitmap one byte short", expandedSection("S", 2, 2, 1, 0, 0), errExpansion, "a bitmap of 1 bytes in 0"},
	{"more set bits than rows", expandedSection("S", 2, 1, 1, 0, 0, 3), errExpansion, "2 surviving rows for 1 rows"},
	{"a gap list where the bitmap is no larger", expandedSection("S", 2, 2, 1, 0, 3, 0, 0), errExpansion, "2 surviving rows take 3 bytes as a gap list and 2 as a bitmap"},
	{"honest gap list", expandedSection("W", 20, 1, 1, 0, 2, 0), nil, ""},
	{"a bitmap where the gap list is smaller", expandedSection("W", 20, 1, 1, 0, 0, 1, 0, 0), errExpansion, "1 surviving rows take 2 bytes as a gap list and 4 as a bitmap"},
	{"the retired expanded form", retired(expandedSection("S", 2, 2, 1, 0, 2, 0, 0)), errExpansion, "presence byte 3 is the retired expanded form"},
	{"keyed by a later level", expandedSection("D", 2, 4, 2, 0, 0, 3, 1, 0, 2, 0, 0, 3), errExpansion, "keyed by level 2"},
	{"a key column out of range", expandedSection("D", 2, 4, 2, 0, 0, 3, 1, 5, 0, 0, 0, 3), ErrUnresolved, `column 5 of relation "D"`},
	{"a keying column out of range", expandedSection("D", 2, 4, 2, 0, 0, 3, 1, 0, 0, 9, 0, 3), ErrUnresolved, `column 9 of relation "D"`},
	{"a group named twice", expandedSection("D", 2, 4, 2, 0, 0, 3, 0, 0, 0, 0, 0, 3), errExpansion, "level 1 is group 0"},
	{"no survivors", expandedSection("S", 2, 2, 1, 0, 1), errExpansion, "0 rows of the 2 declared"},
	{"more survivors than rows", expandedSection("S", 2, 1, 1, 0, 3, 0, 0), errExpansion, "2 surviving rows for 1 rows"},
	{"no rows", expandedSection("S", 2, 0, 1), errExpansion, "an expansion of no rows"},
	// S.k and a plain column in one of the retired tags 3 and 4.
	{"a map column", plainAfter(3), nil, "tag 3 is the retired map encoding"},
	{"a chain column", plainAfter(4), nil, "tag 4 is the retired chain encoding"},
	// S.k, a plain column f and D.k: D keyed by f, which rides S's level.
	{"keyed by a rider", riderSection(riderLead, riderKeyed), nil, ""},
	{"a rider's values short by one", riderSection([]byte{3, 0, 3, 1, 1, encPlain, 14}, riderKeyed), errExpansion, "column 1's values end at 1 steps"},
	{"a rider's values long by one", riderSection([]byte{3, 0, 3, 1, 3, encPlain, 14, 14, 14}, riderKeyed), errExpansion, "column 1 has 3 values for 2 steps"},
	{"a rider past the table", riderSection([]byte{3, 0, 3, 5, 2, encPlain, 14, 14}, riderKeyed), errExpansion, "column 5 of 3"},
	{"a rider that is a named column", riderSection([]byte{3, 0, 3, 0, 2, encPlain, 14, 14}, riderKeyed), errExpansion, "column 0 of 3, a rider or not plain"},
	{"a column that rides twice", riderSection([]byte{6, 0, 3, 1, 2, encPlain, 14, 14, 1, 2, encPlain, 14, 14}, riderKeyed), errExpansion, "column 1 of 3, a rider or not plain"},
	{"keyed by a column no level carries", riderSection([]byte{0, 0, 3}, riderKeyed), errExpansion, "column 1, which no earlier level carries"},
	{"keyed by a rider in a retired tag", riderSection([]byte{3, 0, 3, 1, 2, 4, 0, 14}, riderKeyed), nil, "tag 4"},
}

// retired is section moved to presence byte 3, the expanded form whose
// survivors were gap lists only.
func retired(section []byte) []byte {
	section[len(tableMagic)] = presentGapsOnly
	return section
}

// plainAfter is an expanded section of S's two rows, reading S.k, then a
// plain column encoded with tag, as a map or chain over column 0 with two
// image values.
func plainAfter(tag byte) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := append([]byte(tableMagic), presentExpanded)
	b = str(b, "Out")
	b = str(str(append(b, 2), "S"), "k")
	b = str(str(b, "Out"), "f")
	b = append(b, 2, 2, 1) // two rows, two groups, the first named
	b = append(str(b, "S"), 2, 0)
	b = append(b, 0, 0, 1) // S.k in group 0, the plain column in group 1
	b = append(b, 0, 0, 3)
	return append(b, tag, 0, 2, 2)
}

// riderLead and riderKeyed are the two levels of the honest riderSection:
// S's two rows, carrying column 1 (f) at the value 7 each, and D's two rows,
// keyed on D's column 0 by f.
var (
	riderLead  = []byte{3, 0, 3, 1, 2, encPlain, 14, 14}
	riderKeyed = []byte{2, 0, 1, 1, 0, 3}
)

// riderSection is an expanded section of four rows over S.k, a plain column
// f and D.k, each in a group of its own, with the levels lead and keyed as
// they are written — level 0's group plus three times its riders, its
// survivors and its riders, then level 1's — and no column sent.
func riderSection(lead, keyed []byte) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := append([]byte(tableMagic), presentExpanded)
	b = str(b, "Out")
	b = str(str(str(str(str(str(append(b, 3), "S"), "k"), "Out"), "f"), "D"), "k")
	b = append(b, 4, 3, 1) // four rows, three groups, the first named
	b = append(str(b, "S"), 2, 0, 1)
	b = append(str(b, "D"), 2)
	b = append(b, 0, 0, 1, 2, 0) // S.k, f and D.k, one a group
	return append(append(b, lead...), keyed...)
}

// expansionDB is S, D and W, the relations the hostile expansions read.
func expansionDB() map[string]*Table {
	return map[string]*Table{"S": source("S", []int64{1, 3}, []int64{2, 4}), "D": source("D", []int64{7, 7}), "W": source("W", serialKey(20))}
}

// TestLateRefusesHostileExpansions reads expanded sections that declare
// rows their expansion does not make, or name what they may not: each is
// refused with a typed error, its own where one is named, and names the
// fault; the honest ones read
// S's two rows, W's first, and S's two each with D's two.
func TestLateRefusesHostileExpansions(t *testing.T) {
	db := expansionDB()
	for _, c := range hostileExpansions {
		l, err := ReadLate(bytes.NewReader(c.section), maxWireCells, db)
		if c.refusal == "" {
			want := map[string][]Row{"honest": {{1}, {3}}, "honest gap list": {{1}}}[c.name]
			if want == nil {
				want = []Row{{1, 7, 7}, {1, 7, 7}, {3, 7, 7}, {3, 7, 7}}
			}
			if err != nil || !slices.EqualFunc(l.Table().Rows, want, slices.Equal) {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.refusal) || c.want != nil && !errors.Is(err, c.want) || !typedRefusal(err) {
			t.Errorf("%s: %v, want %q (%v)", c.name, err, c.refusal, c.want)
		}
	}
}

// typedRefusal reports whether err is one of the late reader's typed
// refusals: errExpansion, ErrUnresolved or a column's encodingError.
func typedRefusal(err error) bool {
	return errors.Is(err, errExpansion) || errors.Is(err, ErrUnresolved) || errors.As(err, new(*encodingError))
}

// TestLateExpansionBounded: an expansion whose middle level keeps rows the
// table never reads — every row of it matches every row of the first level,
// and the last level matches only the first level's last row — makes a row
// per middle row in rows² steps. The reader stops it at levels × rows steps,
// typed; the writer, whose surviving rows are the ones the table reads,
// expands the same rows in under that and reads them back.
func TestLateExpansionBounded(t *testing.T) {
	const n = 2000
	zero, serial := make([]int64, n), make([]int64, n)
	for r := range serial {
		serial[r] = int64(r)
	}
	a, b, c := source("A", zero, serial), source("B", zero), source("C", []int64{n - 1})
	lv := []level{
		{src: a, rows: serial32(n)},
		{src: b, rows: serial32(n)},
		{src: c, rows: []int32{0}, LateLevel: LateLevel{FromCol: 1}},
	}
	for k := 1; k < len(lv); k++ {
		lv[k].index()
	}
	idx := [][]int32{make([]int32, n), make([]int32, n), make([]int32, n)}
	if err := expand(lv, nil, n, idx, false); !errors.Is(err, errExpansion) || !strings.Contains(err.Error(), "steps") {
		t.Errorf("expanding in rows² steps: %v, want errExpansion at the step budget", err)
	}
	l := &Late{Rel: "out", N: n, Ins: []LateInput{{Src: a, Idx: make([]int32, n)}, {Src: b, Idx: serial32(n)}, {Src: c, Idx: make([]int32, n)}}}
	for r := range n {
		l.Ins[0].Idx[r] = n - 1
	}
	l.Cols = []LateCol{{In: 0, Col: 1}, {In: 1, Col: 0}, {In: 2, Col: 0}}
	l.Levels = []LateLevel{{In: 0}, {In: 1}, {In: 2, FromCol: 1}}
	l.Attrs = []workflow.Attr{{Rel: "out", Col: "a"}, {Rel: "out", Col: "b"}, {Rel: "out", Col: "c"}}
	if expanded, _, err := CheckExpansion(l); !expanded || err != nil {
		t.Errorf("the writer's expansion of the same rows: expanded %v, %v", expanded, err)
	}
}

// serial32 is 0, 1, ..., n-1.
func serial32(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// DropScratch empties the codec's free list of scratch, so that the next
// call grows its own from nothing.
func DropScratch() {
	wireScratches.Lock()
	defer wireScratches.Unlock()
	wireScratches.free = nil
}

// TestLateWriterModel holds the writer's riders to the loop they ride, over
// 300 generated joins some of whose levels a transform's output keys: every
// section reads back to exactly its late table (CheckExpansion), and among
// the expansions some levels are keyed by a rider, some riders carry a step
// that makes no row — a value no surviving row of the keyed level holds —
// and some riders key no level. Run it at -cpu 1,4 under -race too.
func TestLateWriterModel(t *testing.T) {
	var expanded, keyed, dead, free int
	for seed := int64(0); seed < 300; seed++ {
		l := joinLate(rand.New(rand.NewSource(seed)), false, true)
		x, k, err := CheckExpansion(l)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !x {
			continue
		}
		expanded, keyed = expanded+1, keyed+k
		groups, _ := lateGroups(l)
		lv, rs := findExpansion(l, groups, new(wireScratch))
		for _, r := range rs {
			at := 0 // the level the rider keys, if any
			for k := 1; k < len(lv); k++ {
				if lv[k].From == k && lv[k].FromCol == r.col {
					at = k
				}
			}
			if at == 0 {
				free++
				continue
			}
			for _, v := range r.stream {
				if v == lv[at].absent() {
					dead++
				}
			}
		}
	}
	t.Logf("300 keyed joins: %d expanded, %d levels keyed by a rider, %d steps that make no row, %d riders that key none", expanded, keyed, dead, free)
	if keyed == 0 || dead == 0 || free == 0 {
		t.Errorf("want some levels keyed by a rider, some dead steps and some riders that key no level")
	}
}

// survivorModel writes rows, ascending rows of a relation of rel rows, from
// the format comment in late.go: as a bitmap (0, then ⌈rel/8⌉ bytes, row i
// bit i%8 of byte i/8) or as a gap list (the count plus one, then the first
// row and each later one's gap from the one before, less one), and returns
// the writer's choice, the fewer bytes with ties to the bitmap, and the other.
func survivorModel(rows []int32, rel int) (chosen, other []byte) {
	bitmap := make([]byte, 1+(rel+7)/8)
	gaps := binary.AppendUvarint(nil, uint64(len(rows)+1))
	for i, r := range rows {
		bitmap[1+r/8] |= 1 << (r % 8)
		prev := int32(-1)
		if i > 0 {
			prev = rows[i-1]
		}
		gaps = binary.AppendUvarint(gaps, uint64(r-prev-1))
	}
	if len(bitmap) <= len(gaps) {
		return bitmap, gaps
	}
	return gaps, bitmap
}

// TestLateSurvivorModel holds a level's surviving rows, written and read, to
// survivorModel over 2,000 generated levels — relations of 0 to 300 rows,
// each row read at one of eight densities, from none to all — and the
// reader to the writer's choice: the layout the writer would not have
// chosen is refused, typed.
func TestLateSurvivorModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bitmaps := 0
	for i := 0; i < 2000; i++ {
		rel := rng.Intn(301)
		density := float64(rng.Intn(8)) / 7
		var ix []int32
		for r := 0; r < rel; r++ {
			for rng.Float64() < density && len(ix) < 2*rel {
				ix = append(ix, int32(r))
			}
		}
		rng.Shuffle(len(ix), func(a, b int) { ix[a], ix[b] = ix[b], ix[a] })
		l := level{src: source("R", serialKey(rel))}
		l.survive(ix, new(wireScratch))
		want := slices.Clone(ix)
		slices.Sort(want)
		want = slices.Compact(want)
		if !slices.Equal(l.rows, want) {
			t.Fatalf("level %d: survivors %v, want %v", i, l.rows, want)
		}
		chosen, other := survivorModel(want, rel)
		got := appendExpansion(nil, []level{l}, nil, 1, new(wireScratch))[1:] // after the group
		if !bytes.Equal(got, chosen) {
			t.Fatalf("level %d (%d of %d rows): wrote % x, want % x", i, len(want), rel, got, chosen)
		}
		if chosen[0] == 0 {
			bitmaps++
		}
		d := &wireDecoder{Cursor: Cursor{B: chosen}}
		back, err := d.survivors(l.src, len(ix))
		if err != nil || !slices.Equal(back, want) || d.Pos != len(chosen) {
			t.Fatalf("level %d: read back %v at byte %d of %d (%v), want %v", i, back, d.Pos, len(chosen), err, want)
		}
		d = &wireDecoder{Cursor: Cursor{B: other}}
		if _, err := d.survivors(l.src, len(ix)); !errors.Is(err, errExpansion) {
			t.Fatalf("level %d: the layout not chosen read as %v, want errExpansion", i, err)
		}
	}
	t.Logf("2,000 levels: %d bitmaps, %d gap lists", bitmaps, 2000-bitmaps)
	if bitmaps < 200 || bitmaps > 1800 {
		t.Errorf("%d of 2,000 levels as bitmaps: want both layouts well covered", bitmaps)
	}
}
