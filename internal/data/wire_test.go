package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// encodeTable is WriteTable into a fresh slice.
func encodeTable(t testing.TB, tbl *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTable(&buf, tbl); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	return buf.Bytes()
}

// wireHeader is the stream up to and including the row count, as the format
// comment in wire.go lays it out; the first column's tag byte follows it.
func wireHeader(tbl *Table) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := append([]byte(tableMagic), 1)
	b = str(b, tbl.Rel)
	b = binary.AppendUvarint(b, uint64(len(tbl.Attrs)))
	for _, a := range tbl.Attrs {
		b = str(str(b, a.Rel), a.Col)
	}
	return binary.AppendUvarint(b, uint64(len(tbl.Rows)))
}

// column builds a one-column table.
func column(vals ...int64) *Table {
	tbl := &Table{Rel: "T", Attrs: []workflow.Attr{{Rel: "T", Col: "a"}}}
	for _, v := range vals {
		tbl.Rows = append(tbl.Rows, Row{v})
	}
	return tbl
}

// Generated column shapes, each with the encoding it must select.
func serialKey(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func constant(n int, v int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func zipfDomain(n int, domain int64) []int64 {
	z := newZipf(rand.New(rand.NewSource(7)), 1.3, domain)
	out := make([]int64, n)
	for i := range out {
		out[i] = z.next()
	}
	return out
}

func sortedZipf(n int, domain int64) []int64 {
	out := zipfDomain(n, domain)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// shift is the column v+by.
func shift(vals []int64, by int64) []int64 {
	return apply(vals, func(v int64) int64 { return v + by })
}

func extremes(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = math.MinInt64
		if i%2 == 1 {
			out[i] = math.MaxInt64
		}
	}
	return out
}

// mixedTable carries one column of each encoding, in tag order; its runs
// are negative.
func mixedTable() *Table {
	dict := shift(zipfDomain(300, 40), 1000) // two-byte values: a code a row undercuts them
	cols := [][]int64{serialKey(300), shift(sortedZipf(300, 9), -20), dict}
	tbl := &Table{Rel: "Mixed"}
	for c := range cols {
		tbl.Attrs = append(tbl.Attrs, workflow.Attr{Rel: "M", Col: string(rune('a' + c))})
	}
	for r := 0; r < 300; r++ {
		row := make(Row, len(cols))
		for c := range cols {
			row[c] = cols[c][r]
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// hashJoin is the output of a hash join of a generated probe side with a
// generated build side, columns probe id, probe key, probe attribute, build
// id, build key, build attribute: each probe row, in order, followed by the
// build rows of its key in ascending row order. Probe keys repeat, often on
// consecutive rows; a build attribute is a function of the build id.
func hashJoin(rng *rand.Rand) *Table {
	keys := 1 + rng.Intn(12)
	var build [][3]int64 // id, key, attribute
	for id := 0; id < rng.Intn(60); id++ {
		k := int64(rng.Intn(keys))
		build = append(build, [3]int64{int64(id + 1), k, 3*int64(id) - k})
	}
	var cols [6][]int64
	k := int64(rng.Intn(keys))
	for p := 0; p < 1+rng.Intn(80); p++ {
		if rng.Intn(3) > 0 { // keep the key of the probe row before
			k = int64(rng.Intn(keys))
		}
		for _, b := range build {
			if b[1] == k {
				for c, v := range [6]int64{int64(p), k, int64(p % 5), b[0], b[1], b[2]} {
					cols[c] = append(cols[c], v)
				}
			}
		}
	}
	if len(cols[0]) == 0 {
		return tableOf(serialKey(3), constant(3, 1))
	}
	return tableOf(cols[:]...)
}

// tableOf builds a table from its columns.
func tableOf(cols ...[]int64) *Table {
	tbl := &Table{Rel: "J"}
	for c := range cols {
		tbl.Attrs = append(tbl.Attrs, workflow.Attr{Rel: "J", Col: string(rune('a' + c%26))})
	}
	for r := range cols[0] {
		row := make(Row, len(cols))
		for c := range cols {
			row[c] = cols[c][r]
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// apply is the column f(col[i]).
func apply(col []int64, f func(int64) int64) []int64 {
	out := make([]int64, len(col))
	for i, v := range col {
		out[i] = f(v)
	}
	return out
}

// columnPlans encodes the table, checks that it round-trips and re-encodes
// to the same bytes, and walks the stream with the package's own column
// decoder: each column's tag, which must be the one wireModel gives the
// column alone — no column's encoding reads another.
func columnPlans(t testing.TB, tbl *Table) (tags []byte) {
	t.Helper()
	blob := encodeTable(t, tbl)
	got, err := ReadTable(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("ReadTable: %v", err)
	}
	if !reflect.DeepEqual(got, tbl) {
		t.Fatal("round trip mismatch")
	}
	if !bytes.Equal(encodeTable(t, got), blob) {
		t.Fatal("decoded table re-encodes to different bytes")
	}
	n := len(tbl.Rows)
	d := &wireDecoder{Cursor: Cursor{B: blob, Pos: len(wireHeader(tbl))}, verify: true}
	for c := range tbl.Attrs {
		col := make([]int64, n)
		for r, row := range tbl.Rows {
			col[r] = row[c]
		}
		at := d.Pos
		tags = append(tags, d.B[at])
		if err := d.column(make([]int64, n), new(wireScratch)); err != nil {
			t.Fatalf("column %d: %v", c, err)
		}
		if model := wireModel(col); !bytes.Equal(d.B[at:d.Pos], model) {
			t.Fatalf("column %d is encoded with tag %d in %d bytes, the one-column model with tag %d in %d", c, d.B[at], d.Pos-at, model[0], len(model))
		}
	}
	return tags
}

// TestTableWireMapColumns runs join-shaped tables — attributes that are
// functions of their relation's key, equal join keys, a hash join's build
// rows repeated per probe row — through the codec: each round-trips, and
// each column takes the encoding the one-column model gives it alone. The
// map and chain encodings these shapes once took are retired; a join
// output's late section carries that structure as its expansion.
func TestTableWireMapColumns(t *testing.T) {
	const n = 2000
	key := zipfDomain(n, 200) // a foreign key: 200 values, skewed
	attr := func(v int64) int64 { return (v*7919)%1000 - 500 }
	brokenLast := apply(key, attr)
	brokenLast[n-1]++
	for _, c := range []struct {
		name string
		tbl  *Table
		tags []byte
	}{
		{"attribute of a key", tableOf(key, apply(key, attr)), []byte{encDict, encDict}},
		{"equal join keys", tableOf(key, serialKey(n), key), []byte{encDict, encPlain, encDict}},
		{"chain", tableOf(key, apply(key, func(v int64) int64 { return v / 4 }), apply(key, func(v int64) int64 { return v / 4 % 7 })),
			[]byte{encDict, encPlain, encPlain}},
		{"chain ties", func() *Table {
			runs := apply(serialKey(n), func(v int64) int64 { return (v - 1) / 2 % 3 })
			return tableOf(runs, runs, shift(runs, 5))
		}(), []byte{encPlain, encPlain, encPlain}},
		{"build rows per probe row", func() *Table {
			probe := zipfDomain(n/10, 40)
			var k, id, y []int64
			for _, pk := range probe {
				for b := int64(0); b < pk%4+1; b++ {
					k, id, y = append(k, pk), append(id, 4*pk+b), append(y, (4*pk+b)*31%97)
				}
			}
			return tableOf(k, id, y)
		}(), []byte{encRLE, encPlain, encDict}},
		{"determinant wider than the span", tableOf(apply(key, func(v int64) int64 { return v * 1000 }), apply(key, attr)),
			[]byte{encPlain, encDict}},
		{"a function until the last row", tableOf(key, brokenLast), []byte{encDict, encDict}},
		{"unique key", tableOf(serialKey(n), apply(serialKey(n), func(v int64) int64 { return 1<<40 + v%4 })),
			[]byte{encPlain, encDict}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if tags := columnPlans(t, c.tbl); !reflect.DeepEqual(tags, c.tags) {
				t.Errorf("tags %v, want %v", tags, c.tags)
			}
		})
	}
}

// TestTableWireRandomJoins round-trips generated tables whose columns are
// fresh draws, copies or functions of earlier columns, and generated hash
// join outputs: each column takes the one-column model's encoding, whatever
// the columns before it.
func TestTableWireRandomJoins(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		columnPlans(t, hashJoin(rand.New(rand.NewSource(seed))))
	}

	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 400; round++ {
		n, w := 1+rng.Intn(120), 1+rng.Intn(9)
		cols := make([][]int64, w)
		for c := range cols {
			src, mul, off := rng.Intn(c+1), int64(1+rng.Intn(3)), int64(rng.Intn(1<<uint(rng.Intn(20))))
			if src == c { // a fresh column over a domain of its own
				domain := int64(1 + rng.Intn(2*n))
				cols[c] = make([]int64, n)
				for i := range cols[c] {
					cols[c][i] = off + rng.Int63n(domain)
				}
				continue
			}
			cols[c] = apply(cols[src], func(v int64) int64 { return v/mul - off })
		}
		columnPlans(t, tableOf(cols...))
	}
}

func TestTableWireRoundTrip(t *testing.T) {
	tbl := &Table{
		Rel: "Orders",
		Attrs: []workflow.Attr{
			{Rel: "Orders", Col: "id"},
			{Rel: "Orders", Col: "cid"},
		},
		Rows: []Row{{1, -5}, {2, 0}, {1 << 60, -(1 << 60)}},
	}
	got, err := ReadTable(bytes.NewReader(encodeTable(t, tbl)))
	if err != nil {
		t.Fatalf("ReadTable: %v", err)
	}
	if !reflect.DeepEqual(got, tbl) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tbl)
	}
}

func TestTableWireCanonical(t *testing.T) {
	tbl := column(7, 8)
	if !bytes.Equal(encodeTable(t, tbl), encodeTable(t, tbl)) {
		t.Fatal("same table encoded to different bytes")
	}
}

func TestTableWireNilAndEmpty(t *testing.T) {
	got, err := ReadTable(bytes.NewReader(encodeTable(t, nil)))
	if err != nil || got != nil {
		t.Fatalf("nil table round trip: got %v, %v", got, err)
	}

	empty := &Table{Rel: "E", Attrs: []workflow.Attr{{Rel: "E", Col: "x"}}}
	got, err = ReadTable(bytes.NewReader(encodeTable(t, empty)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rel != "E" || len(got.Attrs) != 1 || len(got.Rows) != 0 {
		t.Fatalf("empty table round trip: %+v", got)
	}
}

// TestReadTableRowsDistinct holds ReadTableRows' premise: a table whose rows
// are distinct spends a byte of its stream a row or more, whatever layouts
// its columns take (constant, runs, dictionaries), so its stream's length is
// a row cap it meets, and one row under its count refuses it as ErrWireCap.
func TestReadTableRowsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		ncols, n := 1+rng.Intn(4), 1+rng.Intn(600)
		tbl := &Table{}
		for c := 0; c < ncols; c++ {
			tbl.Attrs = append(tbl.Attrs, workflow.Attr{Rel: "T", Col: fmt.Sprint(c)})
		}
		seen := map[string]bool{}
		for len(tbl.Rows) < n && len(seen) < 4*n {
			row := make(Row, ncols)
			for c := range row {
				// Narrow domains give constants, runs and functional columns.
				row[c] = int64(rng.Intn(1 + c*c*7))
			}
			row[0] = int64(len(tbl.Rows) / (1 + rng.Intn(3))) // climbing in short runs
			if k := fmt.Sprint(row); !seen[k] {
				seen[k] = true
				tbl.Rows = append(tbl.Rows, row)
			}
		}
		blob := encodeTable(t, tbl)
		if body := len(blob) - len(wireHeader(tbl)); body < len(tbl.Rows) {
			t.Fatalf("trial %d: %d distinct rows in %d bytes of columns", trial, len(tbl.Rows), body)
		}
		if _, err := ReadTableRows(bytes.NewReader(blob), int64(len(blob)), maxWireCells); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := ReadTableRows(bytes.NewReader(blob), int64(len(tbl.Rows)-1), maxWireCells); !errors.Is(err, ErrWireCap) {
			t.Fatalf("trial %d: %d rows under a cap of %d: got %v, want ErrWireCap", trial, len(tbl.Rows), len(tbl.Rows)-1, err)
		}
	}
}

// TestTableWireShapes is the codec's property test: generated shapes round
// trip exactly, encode canonically, and between them select every encoding.
func TestTableWireShapes(t *testing.T) {
	shapes := []struct {
		name string
		tbl  *Table
		tag  int // the last column's encoding, -1 when the table has no column data
	}{
		{"zero rows", &Table{Rel: "Z", Attrs: []workflow.Attr{{Rel: "Z", Col: "a"}, {Rel: "Z", Col: "b"}}}, -1},
		{"zero columns", &Table{Rel: "Z", Rows: []Row{{}, {}, {}}}, -1},
		{"one row", &Table{Rel: "O", Attrs: []workflow.Attr{{Rel: "O", Col: "a"}, {Rel: "O", Col: "b"}}, Rows: []Row{{-1, 1 << 40}}}, int(encPlain)},
		{"serial key", column(serialKey(1000)...), int(encPlain)},
		{"shuffled key past the dictionary span", column(func() []int64 {
			v := serialKey(maxDictSpan + 10)
			rand.New(rand.NewSource(5)).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
			return v
		}()...), int(encPlain)},
		// Runs of one, at a delta of one: two bytes a row undercut three.
		{"serial key past the dictionary span", column(serialKey(maxDictSpan + 10)...), int(encRLE)},
		// The deltas wrap: -1 and +1, one byte each, after the first run.
		{"full range alternating", column(extremes(64)...), int(encRLE)},
		{"constant", column(constant(100, 42)...), int(encRLE)},
		{"sorted small domain", column(sortedZipf(5000, 50)...), int(encRLE)},
		// A code is a byte: it undercuts two-byte values, not one-byte ones.
		{"zipf small domain", column(shift(zipfDomain(5000, 50), 1000)...), int(encDict)},
		{"zipf small domain, one-byte values", column(zipfDomain(5000, 50)...), int(encPlain)},
		{"zipf negative offset", column(func() []int64 {
			v := zipfDomain(2000, 300)
			for i := range v {
				v[i] -= 1 << 33
			}
			return v
		}()...), int(encDict)},
		{"long constant (width-0 dictionary)", column(constant(20000, 9)...), int(encDict)},
		{"mixed", mixedTable(), int(encDict)},
		{"hash join", hashJoin(rand.New(rand.NewSource(4))), int(encPlain)},
	}
	seen := map[int]bool{}
	for _, s := range shapes {
		blob := encodeTable(t, s.tbl)
		got, err := ReadTable(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: ReadTable: %v", s.name, err)
		}
		if !reflect.DeepEqual(got, s.tbl) {
			t.Fatalf("%s: round trip mismatch", s.name)
		}
		if again := encodeTable(t, got); !bytes.Equal(again, blob) {
			t.Fatalf("%s: decoded table re-encodes to different bytes", s.name)
		}
		hdr := wireHeader(s.tbl)
		if !bytes.HasPrefix(blob, hdr) {
			t.Fatalf("%s: stream does not start with the documented header", s.name)
		}
		if s.tag < 0 {
			if len(blob) != len(hdr) {
				t.Fatalf("%s: %d bytes of column data for an empty table", s.name, len(blob)-len(hdr))
			}
			continue
		}
		if tags := columnPlans(t, s.tbl); int(tags[len(tags)-1]) != s.tag {
			t.Errorf("%s: last column encoded with tag %d, want %d", s.name, tags[len(tags)-1], s.tag)
		}
		seen[s.tag] = true
	}
	for _, tag := range []byte{encPlain, encRLE, encDict} {
		if !seen[int(tag)] {
			t.Errorf("no shape selected encoding %d", tag)
		}
	}
}

// TestTableWireDictionaryWidths walks the code widths, 0, 8 and 16 bits, with
// dictionary sizes on both sides of each byte boundary. Every entry is used,
// and the entries are spread over the span a dictionary may take, so that
// neither plain varints nor run deltas undercut a code a row.
func TestTableWireDictionaryWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct{ d, width int }{
		{1, 0}, {2, 8}, {3, 8}, {255, 8}, {256, 8}, {257, 16}, {65535, 16}, {65536, 16},
	} {
		n := max(4*c.d, 200) + rng.Intn(8)
		step := int64((maxDictSpan - 1) / max(1, c.d-1))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = -(1 << 40) + int64(i%c.d)*step
		}
		rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		tbl := column(vals...)
		blob := encodeTable(t, tbl)
		if !bytes.Equal(blob, append(wireHeader(tbl), wireModel(vals)...)) {
			t.Fatalf("%d distinct values over %d rows: the stream is not the model's", c.d, n)
		}
		d := &wireDecoder{Cursor: Cursor{B: blob, Pos: len(wireHeader(tbl))}, verify: true}
		if d.B[d.Pos] != encDict {
			t.Fatalf("%d distinct values over %d rows: tag %d, want a dictionary", c.d, n, d.B[d.Pos])
		}
		d.Pos++
		for k := 0; k < 1+1+c.d-1; k++ { // d, the first value, the deltas
			if _, err := d.Uvarint(); err != nil {
				t.Fatal(err)
			}
		}
		if w := int(d.B[d.Pos]); w != c.width || len(d.B)-d.Pos-1 != n*w/8 {
			t.Errorf("%d distinct values over %d rows: width %d and %d code bytes, want width %d", c.d, n, w, len(d.B)-d.Pos-1, c.width)
		}
		columnPlans(t, tbl)
	}
}

// wireModel is the body of a one-column table, written from the format
// comment alone: every encoding's bytes, and the shortest, ties to the
// lower tag.
func wireModel(vals []int64) []byte {
	plain := []byte{encPlain}
	for _, v := range vals {
		plain = binary.AppendVarint(plain, v)
	}
	var runVals []int64
	var runLens []uint64
	for i, v := range vals {
		if i > 0 && v == vals[i-1] {
			runLens[len(runLens)-1]++
			continue
		}
		runVals, runLens = append(runVals, v), append(runLens, 1)
	}
	rle := binary.AppendUvarint([]byte{encRLE}, uint64(len(runVals)))
	prev := int64(0)
	for _, v := range runVals {
		rle = binary.AppendVarint(rle, v-prev)
		prev = v
	}
	for _, n := range runLens {
		rle = binary.AppendUvarint(rle, n)
	}
	best := plain
	if len(rle) < len(best) {
		best = rle
	}
	dict := slices.Clone(vals)
	slices.Sort(dict)
	dict = slices.Compact(dict)
	if uint64(dict[len(dict)-1])-uint64(dict[0]) >= maxDictSpan {
		return best
	}
	body := binary.AppendVarint(binary.AppendUvarint([]byte{encDict}, uint64(len(dict))), dict[0])
	code := map[int64]int{dict[0]: 0}
	for k := 1; k < len(dict); k++ {
		body = binary.AppendUvarint(body, uint64(dict[k]-dict[k-1]))
		code[dict[k]] = k
	}
	width := 0
	for 1<<width < len(dict) {
		width += 8
	}
	body = append(body, byte(width))
	for _, v := range vals {
		for b := 0; b < width; b += 8 {
			body = append(body, byte(code[v]>>b))
		}
	}
	if len(body) < len(best) {
		best = body
	}
	return best
}

// TestTableWireRunModel holds generated run-shaped columns to wireModel, byte
// for byte: climbing and falling runs, runs of one, and runs at the ends of
// int64, whose deltas wrap.
func TestTableWireRunModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ends := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0, -1}
	seen := map[byte]bool{}
	for round := 0; round < 600; round++ {
		n, maxRun := 1+rng.Intn(300), 1+rng.Intn(6)
		var vals []int64
		v := rng.Int63n(1<<20) - 1<<19
		for len(vals) < n {
			switch round % 3 {
			case 0: // climbing by small steps, as a join's probe-order key
				v += 1 + rng.Int63n(3)
			case 1: // falling
				v -= 1 + rng.Int63n(1<<uint(rng.Intn(20)))
			default: // the ends of int64, never twice in a row
				for prev := v; v == prev; {
					v = ends[rng.Intn(len(ends))]
				}
			}
			for k := 1 + rng.Intn(maxRun); k > 0 && len(vals) < n; k-- {
				vals = append(vals, v)
			}
		}
		tbl := column(vals...)
		blob := encodeTable(t, tbl)
		hdr := wireHeader(tbl)
		if want := append(hdr, wireModel(vals)...); !bytes.Equal(blob, want) {
			t.Fatalf("round %d: % x\nmodel % x", round, blob[len(hdr):], want[len(hdr):])
		}
		columnPlans(t, tbl)
		seen[blob[len(hdr)]] = true
	}
	for _, tag := range []byte{encPlain, encRLE} {
		if !seen[tag] {
			t.Errorf("no generated column selected encoding %d", tag)
		}
	}
}

// TestTableWireConcurrent shares the scratch pool between goroutines the
// way a coordinator's dispatch slots and a worker's handlers do: plain
// tables, and late sections of generated joins read back over the
// relations they name, one codec's calls between the other's; run it under
// -race.
func TestTableWireConcurrent(t *testing.T) {
	type wireCase struct {
		late *Late // nil for a plain table
		db   map[string]*Table
		want *Table
	}
	var cases []wireCase
	for _, tbl := range []*Table{mixedTable(), column(zipfDomain(3000, 200)...), column(constant(500, 1)...), nil} {
		cases = append(cases, wireCase{want: tbl})
	}
	for seed := int64(0); len(cases) < 8; seed++ {
		if l, db, want := lateJoin(rand.New(rand.NewSource(seed))); l.N > 0 {
			cases = append(cases, wireCase{late: l, db: db, want: want})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := cases[(g+i)%len(cases)]
				var buf bytes.Buffer
				var got *Table
				var err error
				if c.late == nil {
					if err = WriteTable(&buf, c.want); err == nil {
						got, err = ReadTable(&buf)
					}
				} else if err = WriteLate(&buf, c.late); err == nil {
					var l *Late
					if l, err = ReadLate(&buf, maxWireCells, c.db); err == nil {
						got = l.Table()
					}
				}
				if err != nil || !reflect.DeepEqual(got, c.want) {
					t.Errorf("goroutine %d round %d: round trip failed: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTableWireRejectsCorruption(t *testing.T) {
	// One column of each encoding, so every decoder meets every cut.
	if tags := columnPlans(t, mixedTable()); !bytes.Equal(tags, []byte{encPlain, encRLE, encDict}) {
		t.Fatalf("mixedTable's columns are encoded %v, want one of each encoding", tags)
	}
	full := encodeTable(t, mixedTable())

	// Truncation at every prefix length must fail, never mis-decode.
	for n := 0; n < len(full); n++ {
		if _, err := ReadTable(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncated stream of %d/%d bytes decoded without error", n, len(full))
		}
	}
	// Trailing garbage is rejected.
	if _, err := ReadTable(bytes.NewReader(append(append([]byte{}, full...), 0x00))); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Bad magic is rejected, and the format this one replaced by name.
	bad := append([]byte{}, full...)
	bad[0] ^= 0xff
	if _, err := ReadTable(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, magic := range []string{"ETBL3", "ETBL4"} {
		old := append([]byte(magic), full[len(tableMagic):]...)
		if _, err := ReadTable(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), `starts "`+magic+`"`) {
			t.Fatalf("a stream of an earlier version: err = %v", err)
		}
	}
}

// TestTableWireRejectsNonCanonical hand-builds streams that decode to a
// valid table but are not what WriteTable emits for it: each must be
// refused, or two byte strings would stand for one table.
func TestTableWireRejectsNonCanonical(t *testing.T) {
	four := column(5, 5, 5, 5) // canonical: rle, one run (delta 5, length 4)
	hdr := wireHeader(four)
	zz := func(v int64) byte { return byte(v<<1) ^ byte(v>>63) } // one-byte zigzag
	cases := []struct {
		name string
		body []byte
		want string // the refusal, where the stream breaks one of the run stream's own rules
	}{
		{"canonical", []byte{encRLE, 1, zz(5), 4}, ""},
		{"plain where rle is smaller", []byte{encPlain, zz(5), zz(5), zz(5), zz(5)}, ""},
		{"dictionary where rle is smaller", []byte{encDict, 1, zz(5), 0}, ""},
		{"padded run count", []byte{encRLE, 0x81, 0x00, zz(5), 4}, ""},
		{"padded run length", []byte{encRLE, 1, zz(5), 0x84, 0x00}, ""},
		{"padded value", []byte{encRLE, 1, 0x8a, 0x00, 4}, ""},
		{"empty run", []byte{encRLE, 2, zz(5), zz(1), 0, 4}, "run of 0"},
		{"run past the row count", []byte{encRLE, 1, zz(5), 5}, "run of 5"},
		{"no runs", []byte{encRLE, 0}, "0 runs for 4 rows"},
		{"more runs than rows", []byte{encRLE, 5, zz(5), zz(1), zz(1), zz(1), zz(1), 1, 1, 1, 1, 1}, "5 runs for 4 rows"},
		{"more runs than half the bytes left", []byte{encRLE, 3, zz(5), zz(1), zz(1), 1}, "3 runs in 4 bytes"},
		{"runs short of the rows", []byte{encRLE, 1, zz(5), 3}, "runs cover 3 of 4 rows"},
		{"zero delta after the first run", []byte{encRLE, 2, zz(5), 0, 2, 2}, "adjacent runs of one value"},
		{"unknown tag", []byte{5, 1, zz(5), 4}, "unknown encoding tag 5"},
	}
	for i, c := range cases {
		_, err := ReadTable(bytes.NewReader(append(append([]byte{}, hdr...), c.body...)))
		if (err == nil) != (i == 0) || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	// Dictionary streams over a column whose canonical form is a dictionary:
	// 4 entries of two-byte varints, codes a byte a row.
	vals := shift(zipfDomain(64, 4), 100)
	canon := encodeTable(t, column(vals...))
	hdr = wireHeader(column(vals...))
	dictHead := []byte{encDict, 4, 0xca, 0x01, 1, 1, 1, 8} // d=4, first value 101, deltas 1 1 1, width 8
	if !bytes.Equal(canon[len(hdr):len(hdr)+len(dictHead)], dictHead) {
		t.Fatalf("fixture is not a 4-entry dictionary column: % x", canon[len(hdr):len(hdr)+len(dictHead)])
	}
	codes := canon[len(hdr)+len(dictHead):]
	var packed []byte // the codes at the two bits a row a 4-entry dictionary took before
	for i := 0; i < len(codes); i += 4 {
		packed = append(packed, codes[i]|codes[i+1]<<2|codes[i+2]<<4|codes[i+3]<<6)
	}
	pastDict := append([]byte{}, codes...)
	pastDict[len(pastDict)-1] = 4
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"unused dictionary entry", append([]byte{encDict, 5, 0xca, 0x01, 1, 1, 1, 1, 8}, codes...)},
		{"zero delta", append([]byte{encDict, 4, 0xca, 0x01, 1, 0, 1, 8}, codes...)},
		{"bit-packed width", append([]byte{encDict, 4, 0xca, 0x01, 1, 1, 1, 2}, packed...)},
		{"code past the dictionary", append(append([]byte{}, dictHead...), pastDict...)},
	} {
		if _, err := ReadTable(bytes.NewReader(append(append([]byte{}, hdr...), c.body...))); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := ReadTable(bytes.NewReader(append(append([]byte{}, hdr...), append(dictHead, codes...)...))); err != nil {
		t.Errorf("the canonical dictionary stream rebuilt from its parts: %v", err)
	}

	// A 256-entry dictionary takes one byte a code, not two.
	wide := make([]int64, 1024)
	for i := range wide {
		wide[i] = 1000 + int64(i*7%256)
	}
	canon = encodeTable(t, column(wide...))
	hdr = wireHeader(column(wide...))
	at := len(canon) - len(wide) - 1 // the width byte
	if canon[len(hdr)] != encDict || canon[at] != 8 {
		t.Fatalf("fixture is not a 256-entry dictionary column of width 8: tag %d, width %d", canon[len(hdr)], canon[at])
	}
	doubled := append([]byte{}, canon[:at]...)
	doubled = append(doubled, 16)
	for _, code := range canon[at+1:] {
		doubled = append(doubled, code, 0)
	}
	if _, err := ReadTable(bytes.NewReader(doubled)); err == nil || !strings.Contains(err.Error(), "code width 16 for 256 dictionary entries") {
		t.Errorf("16-bit codes for a 256-entry dictionary: err = %v", err)
	}

	// Tags 3 and 4, the retired map and chain encodings, in the layout
	// they had: an earlier column and an image. Each is refused by its tag.
	k := []int64{1, 2, 1, 2, 1, 2, 1, 2}
	kcol := append([]byte{encPlain}, bytes.Repeat([]byte{zz(1), zz(2)}, 4)...)
	for tag, name := range map[byte]string{3: "map", 4: "chain"} {
		stream := append(append(wireHeader(tableOf(k, k)), kcol...), tag, 0, zz(1), zz(2))
		_, err := ReadTable(bytes.NewReader(stream))
		var enc *encodingError
		if !errors.As(err, &enc) || enc.tag != tag || !strings.Contains(err.Error(), "retired "+name) {
			t.Errorf("a %s column: err = %v, want the retired tag %d refused", name, err, tag)
		}
	}
}

// TestTableWireCellCap pins the decompression-bomb guard: a few bytes that
// declare 2^40 rows are refused with the typed error before anything is
// allocated for them, and the writer refuses what the reader would.
func TestTableWireCellCap(t *testing.T) {
	bomb := rowBomb()
	if len(bomb) > 64 {
		t.Fatalf("bomb is %d bytes", len(bomb))
	}
	ReadTable(bytes.NewReader(bomb)) // warm the scratch pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTable(bytes.NewReader(bomb))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrWireCap) {
		t.Fatalf("err = %v, want ErrWireCap", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing the bomb allocated %d bytes", got)
	}

	// The writer checks the shape before it looks at a row.
	wide := &Table{Rel: "W", Attrs: make([]workflow.Attr, maxWireCols), Rows: make([]Row, maxWireCells/maxWireCols+1)}
	if err := WriteTable(&bytes.Buffer{}, wide); !errors.Is(err, ErrWireCap) {
		t.Fatalf("WriteTable of %d × %d cells: err = %v, want ErrWireCap", len(wide.Rows), len(wide.Attrs), err)
	}
}

// rowBomb is a well-formed stream whose one column is a single run of 2^40
// rows.
func rowBomb() []byte {
	b := wireHeader(&Table{Rel: "B", Attrs: []workflow.Attr{{Rel: "B", Col: "x"}}})
	b = binary.AppendUvarint(b[:len(b)-1], 1<<40) // replace the row count
	b = append(b, encRLE, 1, 0)
	return binary.AppendUvarint(b, 1<<40)
}
