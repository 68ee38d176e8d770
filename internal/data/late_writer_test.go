package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// appendLateEager is a late writer that gathers and scans every named
// column into the scratch before it plans a plain one, as WriteLate once
// did: the model WriteLate's lazy named columns are held to. Where the
// index vectors are a join expansion (findExpansion), it writes that in
// their place, as WriteLate does.
func appendLateEager(buf []byte, t *Late, sc *wireScratch) ([]byte, error) {
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
	lv := findExpansion(t, groups, sc)
	if lv != nil {
		buf[present] = presentExpanded
	}
	nv := len(t.Attrs)
	for _, grp := range groups {
		if grp.in >= 0 {
			nv++
		}
	}
	cells, stats := make([]int64, n*nv), make([]colStats, nv)
	cols := new(wireCols).plain(cells, nv)
	var body []byte
	p := 0
	for _, grp := range groups {
		if grp.in >= 0 {
			ix := cols.vals[p]
			for r, i := range t.Ins[grp.in].Idx {
				ix[r] = int64(i)
			}
			stats[p].scan(ix)
			if lv == nil {
				body = appendColumn(body, cols, stats, p, latePlan(cols, stats, p, sc), sc)
			}
			stats[p].index = true
			p++
		}
		for _, c := range grp.cols {
			t.Gather(cols.vals[p], c)
			stats[p].scan(cols.vals[p])
			if grp.in < 0 {
				pl := latePlan(cols, stats, p, sc)
				stats[p].mapped = pl.enc == encMap
				body = appendColumn(body, cols, stats, p, pl, sc)
			}
			p++
		}
	}

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
	if lv != nil {
		buf = appendExpansion(buf, lv)
	}
	return append(buf, body...), nil
}

// WriteLateEager writes a section as appendLateEager does, for the suite's
// outputs (late_writer_suite_test.go).
func WriteLateEager(t *Late) ([]byte, error) { return appendLateEager(nil, t, new(wireScratch)) }

// WriteLateCells writes t as WriteLate does, on scratch of its own, and
// counts the cells its named columns gathered.
func WriteLateCells(t *Late) (section []byte, gathered int, err error) {
	sc := new(wireScratch)
	section, err = appendLate(nil, t, sc)
	for j, v := range sc.cols.vals {
		if sc.cols.named[j] >= 0 {
			gathered += len(v)
		}
	}
	return section, gathered, err
}

// ReadLateDeterminants reads a section as ReadLate does, on scratch of its
// own, and counts the named columns it gathered: those a map or chain column
// read as its determinant.
func ReadLateDeterminants(section []byte, db map[string]*Table) (int, error) {
	sc := new(wireScratch)
	if _, err := readLate(bytes.NewReader(section), maxWireCells, db, sc); err != nil {
		return 0, err
	}
	gathered := 0
	for j, v := range sc.cols.vals {
		if sc.cols.named[j] >= 0 && v != nil {
			gathered++
		}
	}
	return gathered, nil
}

// withOutliers is l over copies of its relations that end in one row no
// index reads, of a value far from every other in each column: a named
// column's relation is then wider than maxDictSpan while the rows the table
// reads may not be, and the writer must gather the column to learn its
// bounds.
func withOutliers(l *Late) *Late {
	wide := make(map[*Table]*Table)
	out := *l
	out.Ins = make([]LateInput, len(l.Ins))
	for k, in := range l.Ins {
		src := wide[in.Src]
		if src == nil {
			src = &Table{Rel: in.Src.Rel, Attrs: in.Src.Attrs, Rows: append([]Row(nil), in.Src.Rows...)}
			far := make(Row, len(in.Src.Attrs))
			for c := range far {
				far[c] = 1 << 40
			}
			src.Rows = append(src.Rows, far)
			wide[in.Src] = src
		}
		out.Ins[k] = LateInput{Src: src, Idx: in.Idx}
	}
	return &out
}

// derived is l with each plain column, at even odds, rewritten as a map or
// a chain over an earlier named column, as a transform's output over a
// joined relation is: its values a function of the column's, or of the
// column's value and the row's place in its run.
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
		chain := rng.Intn(2) == 0
		vals := make([]int64, l.N)
		for r, v := range det {
			vals[r] = (v*2654435761)%1000003 + 7
			if chain {
				for k := r; k > 0 && det[k-1] == v; k-- {
					vals[r] += 7
				}
			}
		}
		out.Cols[c] = LateCol{In: -1, Vals: vals}
	}
	return &out
}

// rescanned is a table of a relation of distinct keys read in scan order
// twice, each row of it on two rows of the table, then a chain over the key:
// the key's first value to recur does so past the first rows a pass gathers.
func rescanned(keys int) *Late {
	key := make([]int64, keys)
	for r := range key {
		key[r] = int64(3 * r)
	}
	src := source("K", key)
	l := &Late{Rel: "out", N: 4 * keys, Ins: []LateInput{{Src: src, Idx: make([]int32, 4*keys)}}}
	vals := make([]int64, l.N)
	for r := range l.Ins[0].Idx {
		l.Ins[0].Idx[r] = int32(r / 2 % keys)
		vals[r] = int64(r/2%keys)*1000 + int64(r%2)
	}
	l.Cols = []LateCol{{In: 0, Col: 0}, {In: -1, Vals: vals}}
	l.Attrs = []workflow.Attr{{Rel: "out", Col: "k"}, {Rel: "out", Col: "v"}}
	return l
}

// TestLateWriterModel holds WriteLate, whose named columns are gathered only
// as far as a determinant pass reads them and bounded by their relation's
// column, to the eager writer byte for byte over 200 generated late tables,
// each as generated, with plain columns made maps and chains over named
// ones, and that again over relations widened past maxDictSpan by a row no
// index reads; and over relations of distinct keys scanned twice, whose
// first recurrence lies past the first gather. The suite's outputs are
// late_writer_suite_test.go's.
func TestLateWriterModel(t *testing.T) {
	type tcase struct {
		name string
		l    *Late
	}
	var cases []tcase
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := randomLate(rng)
		d := derived(l, rng)
		cases = append(cases,
			tcase{fmt.Sprintf("seed %d", seed), l},
			tcase{fmt.Sprintf("seed %d derived", seed), d},
			tcase{fmt.Sprintf("seed %d derived, outliers", seed), withOutliers(d)})
	}
	for _, keys := range []int{gatherChunk / 4, gatherChunk - 1, gatherChunk, 3 * gatherChunk} {
		cases = append(cases, tcase{fmt.Sprintf("%d keys rescanned", keys), rescanned(keys)})
	}
	var lazyCells, eagerCells, none, past int // eagerCells: every column, gathered or copied
	for _, tc := range cases {
		want, err := WriteLateEager(tc.l)
		if err != nil {
			t.Fatalf("%s: eager writer: %v", tc.name, err)
		}
		var got bytes.Buffer
		if err := WriteLate(&got, tc.l); err != nil {
			t.Fatalf("%s: WriteLate: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: WriteLate wrote %d bytes, the eager writer %d, and they differ", tc.name, got.Len(), len(want))
		}
		_, gathered, _ := WriteLateCells(tc.l)
		lazyCells += gathered
		eagerCells += tc.l.N * len(tc.l.Cols)
		switch {
		case gathered == 0 && tc.l.N > 0:
			none++
		case gathered > gatherChunk:
			past++
		}
	}
	t.Logf("%d tables, %d gathering no named row and %d past the first gather; %d named cells gathered, where the eager writer gathered or copied %d",
		len(cases), none, past, lazyCells, eagerCells)
	if none == 0 || past == 0 {
		t.Errorf("%d tables gathered no named row and %d past the first gather; want some of each", none, past)
	}
}

// DropScratch empties the codec's free list of scratch, so that the next
// call grows its own from nothing.
func DropScratch() {
	wireScratches.Lock()
	defer wireScratches.Unlock()
	wireScratches.free = nil
}
