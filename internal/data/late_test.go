package data

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// source builds a relation of the given columns.
func source(rel string, cols ...[]int64) *Table {
	t := tableOf(cols...)
	t.Rel = rel
	for c := range t.Attrs {
		t.Attrs[c].Rel = rel
	}
	return t
}

// lateJoin generates a hash join of a probe relation P, filtered, with a
// build relation B on their key column, in the engine's order — probe rows
// in scan order, each followed by the build rows of its key in build order —
// as a late table over P and B with one computed column, plus the database
// both hold and the join's rows.
func lateJoin(rng *rand.Rand) (*Late, map[string]*Table, *Table) {
	return lateJoinOrder(rng, false)
}

// lateJoinOrder is lateJoin, with each probe row's build rows in descending
// build order if reverse: a join that is no expansion where a key has two
// build rows, though its loop names the engine's.
func lateJoinOrder(rng *rand.Rand, reverse bool) (*Late, map[string]*Table, *Table) {
	keys := int64(1 + rng.Intn(12))
	nb, np := rng.Intn(60), 1+rng.Intn(200)
	var bcols, pcols [3][]int64 // id, key, attribute
	for id := 0; id < nb; id++ {
		k := rng.Int63n(keys)
		for c, v := range [3]int64{int64(id + 1), k, 3*int64(id) - k} {
			bcols[c] = append(bcols[c], v)
		}
	}
	k := rng.Int63n(keys)
	for id := 0; id < np; id++ {
		if rng.Intn(3) > 0 {
			k = rng.Int63n(keys)
		}
		for c, v := range [3]int64{int64(id + 1), k, int64(id % 5)} {
			pcols[c] = append(pcols[c], v)
		}
	}
	p, b := source("P", pcols[:]...), source("B", bcols[:]...)
	l := &Late{Rel: "P⋈B", Ins: []LateInput{{Src: p}, {Src: b}}, Levels: []LateLevel{{In: 0}, {In: 1, Key: 1, FromCol: 1}}}
	for c := range p.Attrs {
		l.Attrs = append(l.Attrs, p.Attrs[c])
		l.Cols = append(l.Cols, LateCol{In: 0, Col: c})
	}
	for c := range b.Attrs {
		l.Attrs = append(l.Attrs, b.Attrs[c])
		l.Cols = append(l.Cols, LateCol{In: 1, Col: c})
	}
	var derived []int64
	want := &Table{Rel: l.Rel, Attrs: append(l.Attrs, workflow.Attr{Rel: "P⋈B", Col: "f"})}
	for pi, pr := range p.Rows {
		if pr[2] == 3 { // the filter
			continue
		}
		for i := range b.Rows {
			bi := i
			if reverse {
				bi = len(b.Rows) - 1 - i
			}
			if br := b.Rows[bi]; br[1] == pr[1] {
				l.Ins[0].Idx = append(l.Ins[0].Idx, int32(pi))
				l.Ins[1].Idx = append(l.Ins[1].Idx, int32(bi))
				derived = append(derived, pr[1]*10+br[2]%3)
				want.Rows = append(want.Rows, append(slices.Concat(pr, br), derived[len(derived)-1]))
			}
		}
	}
	l.N = len(derived)
	l.Attrs = want.Attrs
	l.Cols = append(l.Cols, LateCol{In: -1, Vals: derived})
	return l, map[string]*Table{"P": p, "B": b}, want
}

// encodeLate is WriteLate into a fresh slice.
func encodeLate(t testing.TB, l *Late) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteLate(&buf, l); err != nil {
		t.Fatalf("WriteLate: %v", err)
	}
	return buf.Bytes()
}

// lateLayout parses a late section's head the way the format comment in
// late.go lays it out: the groups' relations ("" for a plain group) and where
// the columns start.
func lateLayout(t testing.TB, b []byte) (rels []string, body int) {
	t.Helper()
	d := &Cursor{B: b, Pos: len(tableMagic) + 1}
	must := func(u uint64, err error) uint64 {
		if err != nil {
			t.Fatalf("late head: %v", err)
		}
		return u
	}
	str := func() string {
		s, err := d.String(maxWireName)
		if err != nil {
			t.Fatalf("late head: %v", err)
		}
		return s
	}
	str()
	ncols := int(must(d.Uvarint()))
	for i := 0; i < 2*ncols; i++ {
		str()
	}
	must(d.Uvarint()) // rows
	for g := must(d.Uvarint()); g > 0; g-- {
		d.Pos++
		if b[d.Pos-1] == 0 {
			rels = append(rels, "")
			continue
		}
		rels = append(rels, str())
		must(d.Uvarint())
	}
	for c := 0; c < ncols; c++ {
		if rels[must(d.Uvarint())] != "" {
			must(d.Uvarint())
		}
	}
	return rels, d.Pos
}

// TestLateRoundTripJoins writes generated hash joins in late form and reads
// them back over the relations they name: the rows are the join's, the same
// late table always makes the same bytes, and no section is larger than the
// same rows with every column plain, but for the groups' bytes. Every join
// in the engine's order that makes rows makes them by its loop, and is sent
// as its expansion but for one whose index columns take fewer bytes; of
// those whose build rows come in descending order, which are no expansion
// where a key has two build rows, some name both inputs.
func TestLateRoundTripJoins(t *testing.T) {
	expanded, bothNamed, smaller := 0, 0, 0
	for seed := int64(0); seed < 300; seed++ {
		reverse := seed%2 == 1
		l, db, want := lateJoinOrder(rand.New(rand.NewSource(seed)), reverse)
		b := encodeLate(t, l)
		if again := encodeLate(t, l); !bytes.Equal(b, again) {
			t.Fatalf("seed %d: one late table made two streams", seed)
		}
		got, err := ReadLate(bytes.NewReader(b), maxWireCells, db)
		if err != nil {
			t.Fatalf("seed %d: ReadLate: %v", seed, err)
		}
		if len(want.Rows) == 0 {
			want.Rows = nil
		}
		if !reflect.DeepEqual(got.Table(), want) {
			t.Fatalf("seed %d: the late table read back differs from the join", seed)
		}
		if l.N == 0 {
			continue
		}
		plain := encodeLate(t, lateOf(want))
		rels, _ := lateLayout(t, b)
		if len(b) > len(plain)+len(rels)-1 {
			t.Errorf("seed %d: %d bytes late, %d all plain, %d groups", seed, len(b), len(plain), len(rels))
		}
		if b[len(tableMagic)] == presentExpanded {
			expanded++
			continue
		}
		if groups, _ := lateGroups(l); !reverse {
			if lv, _ := findExpansion(l, groups, new(wireScratch)); lv == nil {
				t.Errorf("seed %d: a join in the engine's order does not make its rows by its loop", seed)
			}
			smaller++
		}
		if len(rels) > 1 && rels[0] == "P" && rels[1] == "B" {
			bothNamed++
		}
	}
	t.Logf("%d of 300 joins sent as their expansion, %d in the engine's order smaller as indexes; of the others, %d named both inputs", expanded, smaller, bothNamed)
	if expanded == 0 || bothNamed == 0 || smaller != 1 {
		t.Errorf("%d joins expanded, %d others named both inputs, %d in the engine's order smaller as indexes; want some of the first two and 1", expanded, bothNamed, smaller)
	}
}

// TestLateNamesNotValues widens the build relation of a join with payload
// columns the output carries: the section grows by their names and refs and
// its columns do not change — a named relation's columns cost no values.
func TestLateNamesNotValues(t *testing.T) {
	l, _, _ := lateJoin(rand.New(rand.NewSource(11)))
	narrow := encodeLate(t, l)
	rels, body := lateLayout(t, narrow)
	if len(rels) < 2 || rels[1] != "B" {
		t.Fatalf("groups %q: the build side is not named", rels)
	}
	b := l.Ins[1].Src
	rng := rand.New(rand.NewSource(5))
	wide := &Table{Rel: b.Rel, Attrs: slices.Clone(b.Attrs)}
	extra := 0
	for c := 0; c < 4; c++ {
		a := workflow.Attr{Rel: "B", Col: "payload" + string(rune('0'+c))}
		wide.Attrs = append(wide.Attrs, a)
		extra += 1 + len(a.Rel) + 1 + len(a.Col) + 2 // names, group and column refs
	}
	for _, r := range b.Rows {
		row := append(Row{}, r...)
		for c := 0; c < 4; c++ {
			row = append(row, rng.Int63())
		}
		wide.Rows = append(wide.Rows, row)
	}
	w := *l
	w.Ins = []LateInput{l.Ins[0], {Src: wide, Idx: l.Ins[1].Idx}}
	w.Attrs = append(slices.Clone(l.Attrs[:6]), wide.Attrs[3:]...)
	w.Attrs = append(w.Attrs, l.Attrs[6])
	w.Cols = append(slices.Clone(l.Cols[:6]), LateCol{In: 1, Col: 3}, LateCol{In: 1, Col: 4}, LateCol{In: 1, Col: 5}, LateCol{In: 1, Col: 6}, l.Cols[6])
	widened := encodeLate(t, &w)
	if got := len(widened) - len(narrow); got != extra {
		t.Errorf("4 payload columns grew the section %d bytes, their names and refs are %d", got, extra)
	}
	if !bytes.HasSuffix(widened, narrow[body:]) {
		t.Error("the payload columns changed the section's columns")
	}
}

// TestLateRefusesUnresolved reads late sections naming what the reader does
// not hold: each is ErrUnresolved, naming the relation.
func TestLateRefusesUnresolved(t *testing.T) {
	l, db, _ := lateJoin(rand.New(rand.NewSource(11)))
	b := encodeLate(t, l)
	if _, err := ReadLate(bytes.NewReader(b), maxWireCells, db); err != nil {
		t.Fatal(err)
	}
	short := *db["B"]
	short.Rows = short.Rows[:len(short.Rows)-1]
	// An index past the relation's rows: P of two rows, read at row 5.
	past := append([]byte(tableMagic), presentLate, 1, 'T', 1, 1, 'P', 1, 'a', 2, 1, 1, 1, 'P', 2, 0, 0, encPlain, 0, 10)
	for _, c := range []struct {
		name, rel string
		section   []byte
		db        map[string]*Table
	}{
		{"unknown relation", "B", b, map[string]*Table{"P": db["P"]}},
		{"row count", "B", b, map[string]*Table{"P": db["P"], "B": &short}},
		{"index past the rows", "P", past, map[string]*Table{"P": source("P", []int64{1, 2})}},
	} {
		_, err := ReadLate(bytes.NewReader(c.section), maxWireCells, c.db)
		if !errors.Is(err, ErrUnresolved) || !strings.Contains(err.Error(), `"`+c.rel+`"`) {
			t.Errorf("%s: %v, want ErrUnresolved naming %q", c.name, err, c.rel)
		}
	}
	// The reader of plain tables takes no late section, and the late reader
	// no plain table.
	if _, err := ReadTable(bytes.NewReader(b)); err == nil {
		t.Error("ReadTable read a late section")
	}
	if _, err := ReadLate(bytes.NewReader(encodeTable(t, column(1, 2))), maxWireCells, db); err == nil {
		t.Error("ReadLate read a plain table")
	}
}

// lateOf returns t as a late table that reads no relation: every column
// plain.
func lateOf(t *Table) *Late {
	l := &Late{Rel: t.Rel, Attrs: t.Attrs, N: len(t.Rows), Cols: make([]LateCol, len(t.Attrs))}
	for c := range l.Cols {
		vals := make([]int64, l.N)
		for r, row := range t.Rows {
			vals[r] = row[c]
		}
		l.Cols[c] = LateCol{In: -1, Vals: vals}
	}
	return l
}
