package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

// mixedTable carries one column of each encoding plus a negative run.
func mixedTable() *Table {
	cols := [][]int64{serialKey(300), sortedZipf(300, 9), zipfDomain(300, 40), constant(300, -5)}
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
// decoder: each column's tag and, for a map column, its determinant.
func columnPlans(t *testing.T, tbl *Table) (tags []byte, dets []int) {
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
	n, w := len(tbl.Rows), len(tbl.Attrs)
	d := &wireDecoder{b: blob, pos: len(wireHeader(tbl))}
	cells, stats := make([]int64, n*w), make([]colStats, w)
	for c := 0; c < w; c++ {
		tags, dets = append(tags, d.b[d.pos]), append(dets, -1)
		if d.b[d.pos] == encMap {
			dets[c] = int(d.b[d.pos+1]) // one byte: the fixtures are narrow
		}
		if err := d.column(cells, stats, c, new(wireScratch)); err != nil {
			t.Fatalf("column %d: %v", c, err)
		}
	}
	return tags, dets
}

// TestTableWireMapColumns runs join-shaped tables through the codec: what
// the paper's key / foreign-key metadata says of a join output — attributes
// are functions of their relation's key, join keys are equal — is found in
// the values, and only where it is true and pays.
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
		dets []int
	}{
		{"attribute of a key", tableOf(key, apply(key, attr)),
			[]byte{encDict, encMap}, []int{-1, 0}},
		{"equal join keys", tableOf(key, serialKey(n), key),
			[]byte{encDict, encPlain, encMap}, []int{-1, -1, 0}},
		// B = f(A) is a map column, so C = g(B) goes through A.
		{"chain", tableOf(key, apply(key, func(v int64) int64 { return v / 4 }), apply(key, func(v int64) int64 { return v / 4 % 7 })),
			[]byte{encDict, encMap, encMap}, []int{-1, 0, 0}},
		{"determinant wider than the span", tableOf(apply(key, func(v int64) int64 { return v * 1000 }), apply(key, attr)),
			[]byte{encPlain, encDict}, []int{-1, -1}},
		{"a function until the last row", tableOf(key, brokenLast),
			[]byte{encDict, encDict}, []int{-1, -1}},
		// Every column is a function of a unique key, at a value a row.
		{"unique key", tableOf(serialKey(n), apply(serialKey(n), func(v int64) int64 { return 1<<40 + v%4 })),
			[]byte{encPlain, encDict}, []int{-1, -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tags, dets := columnPlans(t, c.tbl)
			if !reflect.DeepEqual(tags, c.tags) || !reflect.DeepEqual(dets, c.dets) {
				t.Errorf("tags %v determinants %v, want %v %v", tags, dets, c.tags, c.dets)
			}
		})
	}
}

// TestTableWireMapSearchBounded: a column looks for its determinant among at
// most mapWork × nrows cells of the columns before it. Decoy keys that each
// hold up as a determinant to their last row use that up, so a column with
// mapWork of them before its determinant is encoded as if nothing determined
// it — on both sides, whatever the table's width: planning stays linear in
// the table's cells.
func TestTableWireMapSearchBounded(t *testing.T) {
	const n = 2000
	det := apply(serialKey(n), func(v int64) int64 { return v % 4 })
	target := apply(det, func(v int64) int64 { return 1<<40 + v })
	for _, c := range []struct {
		decoys int
		tag    byte
	}{{mapWork - 2, encMap}, {mapWork, encDict}, {300, encDict}} {
		cols := make([][]int64, c.decoys, c.decoys+2)
		for i := range cols {
			cols[i] = serialKey(n)
		}
		tags, dets := columnPlans(t, tableOf(append(cols, det, target)...))
		if last := len(tags) - 1; tags[last] != c.tag || (c.tag == encMap) != (dets[last] == c.decoys) {
			t.Errorf("%d decoys: target encoded with tag %d through column %d, want tag %d", c.decoys, tags[last], dets[last], c.tag)
		}
	}
}

// TestTableWireRandomJoins round-trips generated tables whose columns are
// fresh draws, copies or functions of earlier columns, at row counts small
// enough that the search budget and the size ties are in play: the reader's
// plan, which skips the pair it decoded through, must be the writer's.
func TestTableWireRandomJoins(t *testing.T) {
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

// TestTableWireShapes is the codec's property test: generated shapes round
// trip exactly, encode canonically, and between them select every encoding.
func TestTableWireShapes(t *testing.T) {
	shapes := []struct {
		name string
		tbl  *Table
		tag  int // the first column's encoding, -1 when the table has no column data
	}{
		{"zero rows", &Table{Rel: "Z", Attrs: []workflow.Attr{{Rel: "Z", Col: "a"}, {Rel: "Z", Col: "b"}}}, -1},
		{"zero columns", &Table{Rel: "Z", Rows: []Row{{}, {}, {}}}, -1},
		{"one row", &Table{Rel: "O", Attrs: []workflow.Attr{{Rel: "O", Col: "a"}, {Rel: "O", Col: "b"}}, Rows: []Row{{-1, 1 << 40}}}, int(encPlain)},
		{"serial key", column(serialKey(1000)...), int(encPlain)},
		{"serial key past the dictionary span", column(serialKey(maxDictSpan + 10)...), int(encPlain)},
		{"full range alternating", column(extremes(64)...), int(encPlain)},
		{"constant", column(constant(100, 42)...), int(encRLE)},
		{"sorted small domain", column(sortedZipf(5000, 50)...), int(encRLE)},
		{"zipf small domain", column(zipfDomain(5000, 50)...), int(encDict)},
		{"zipf negative offset", column(func() []int64 {
			v := zipfDomain(2000, 300)
			for i := range v {
				v[i] -= 1 << 33
			}
			return v
		}()...), int(encDict)},
		{"long constant (width-0 dictionary)", column(constant(20000, 9)...), int(encDict)},
		{"mixed", mixedTable(), int(encPlain)},
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
		if tag := int(blob[len(hdr)]); tag != s.tag {
			t.Errorf("%s: first column encoded with tag %d, want %d", s.name, tag, s.tag)
		}
		seen[s.tag] = true
	}
	for _, tag := range []byte{encPlain, encRLE, encDict} {
		if !seen[int(tag)] {
			t.Errorf("no shape selected encoding %d", tag)
		}
	}
}

// TestTableWireDictionaryWidths round-trips dictionary columns at every
// code width, with dictionary sizes on both sides of each power of two and
// row counts that leave every possible number of padding bits.
func TestTableWireDictionaryWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for w := 1; w <= 16; w++ {
		for _, d := range []int{1<<(w-1) + 1, 1 << w} {
			n := 4*d + rng.Intn(8)
			vals := make([]int64, n)
			for i := range vals {
				// Every entry is used; a large offset keeps plain varints
				// (3+ bytes a row) from undercutting the dictionary.
				vals[i] = -(1 << 40) + int64(i%d)
			}
			rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			tbl := column(vals...)
			blob := encodeTable(t, tbl)
			hdr := wireHeader(tbl)
			if blob[len(hdr)] != encDict {
				t.Fatalf("%d distinct values over %d rows: tag %d, want a dictionary", d, n, blob[len(hdr)])
			}
			got, err := ReadTable(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%d distinct values over %d rows: %v", d, n, err)
			}
			if !reflect.DeepEqual(got, tbl) {
				t.Fatalf("%d distinct values over %d rows: round trip mismatch", d, n)
			}
		}
	}
}

// TestTableWireConcurrent shares the scratch pool between goroutines the
// way a coordinator's dispatch slots and a worker's handlers do; run it
// under -race.
func TestTableWireConcurrent(t *testing.T) {
	tables := []*Table{mixedTable(), column(zipfDomain(3000, 200)...), column(constant(500, 1)...), nil}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tbl := tables[(g+i)%len(tables)]
				var buf bytes.Buffer
				err := WriteTable(&buf, tbl)
				var got *Table
				if err == nil {
					got, err = ReadTable(&buf)
				}
				if err != nil || !reflect.DeepEqual(got, tbl) {
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
	old := append([]byte("ETBL2"), full[len(tableMagic):]...)
	if _, err := ReadTable(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), `starts "ETBL2"`) {
		t.Fatalf("a stream of the previous version: err = %v", err)
	}
}

// TestTableWireRejectsNonCanonical hand-builds streams that decode to a
// valid table but are not what WriteTable emits for it: each must be
// refused, or two byte strings would stand for one table.
func TestTableWireRejectsNonCanonical(t *testing.T) {
	three := column(5, 5, 5) // canonical: rle (5, run 3)
	hdr := wireHeader(three)
	zz := func(v int64) byte { return byte(v<<1) ^ byte(v>>63) } // one-byte zigzag
	cases := []struct {
		name string
		body []byte
	}{
		{"canonical", []byte{encRLE, zz(5), 3}},
		{"plain where rle is smaller", []byte{encPlain, zz(5), zz(5), zz(5)}},
		{"dictionary where rle is smaller", []byte{encDict, 1, zz(5), 0}},
		{"split run", []byte{encRLE, zz(5), 2, zz(5), 1}},
		{"empty run", []byte{encRLE, zz(5), 0, zz(5), 3}},
		{"padded run length", []byte{encRLE, zz(5), 0x83, 0x00}},
		{"padded value", []byte{encRLE, 0x8a, 0x00, 3}},
		{"run past the row count", []byte{encRLE, zz(5), 4}},
		{"unknown tag", []byte{4, zz(5), 3}},
	}
	for i, c := range cases {
		_, err := ReadTable(bytes.NewReader(append(append([]byte{}, hdr...), c.body...)))
		if (err == nil) != (i == 0) {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}

	// Dictionary streams over a column whose canonical form is a dictionary.
	vals := zipfDomain(64, 4)
	canon := encodeTable(t, column(vals...))
	hdr = wireHeader(column(vals...))
	if canon[len(hdr)] != encDict || canon[len(hdr)+1] != 4 {
		t.Fatalf("fixture is not a 4-entry dictionary column: % x", canon[len(hdr):len(hdr)+4])
	}
	// tag, d=4, first value 1, deltas 1 1 1, width 2, then 16 bytes of codes.
	codes := canon[len(hdr)+7:]
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"unused dictionary entry", append([]byte{encDict, 5, zz(1), 1, 1, 1, 1, 3}, make([]byte, 24)...)},
		{"zero delta", append([]byte{encDict, 4, zz(1), 1, 0, 1, 2}, codes...)},
		{"wrong width", append([]byte{encDict, 4, zz(1), 1, 1, 1, 3}, make([]byte, 24)...)},
	} {
		if _, err := ReadTable(bytes.NewReader(append(append([]byte{}, hdr...), c.body...))); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Map streams, over a key column k = 1 2 1 2 … whose canonical form is
	// the 5-byte dictionary kcol.
	k := []int64{1, 2, 1, 2, 1, 2, 1, 2}
	kcol := []byte{encDict, 2, zz(1), 1, 1, 0xaa}
	v := apply(k, func(v int64) int64 { return 10 * v })
	for i, c := range []struct {
		name string
		tbl  *Table
		body []byte // the columns after kcol
	}{
		{"canonical", tableOf(k, v), []byte{encMap, 0, zz(10), zz(20)}},
		{"image entry for an absent value", tableOf(k, v), []byte{encMap, 0, zz(10), zz(20), zz(30)}},
		{"image entry missing", tableOf(k, v), []byte{encMap, 0, zz(10)}},
		{"determinant is the column itself", tableOf(k, v), []byte{encMap, 1, zz(10), zz(20)}},
		{"determinant is a later column", tableOf(k, v, v), []byte{encMap, 2, zz(10), zz(20), encMap, 0, zz(10), zz(20)}},
		{"determinant is a map column", tableOf(k, v, v), []byte{encMap, 0, zz(10), zz(20), encMap, 1, zz(10), zz(20)}},
		{"padded determinant", tableOf(k, v), []byte{encMap, 0x80, 0x00, zz(10), zz(20)}},
		{"map where rle is smaller", tableOf(k, constant(8, 5)), []byte{encMap, 0, zz(5), zz(5)}},
		{"dictionary where map is smaller", tableOf(k, v), []byte{encDict, 2, zz(10), 10, 1, 0xaa}},
		{"plain where map is smaller", tableOf(k, v), append([]byte{encPlain}, bytes.Repeat([]byte{zz(10), zz(20)}, 4)...)},
	} {
		stream := append(append(wireHeader(c.tbl), kcol...), c.body...)
		if _, err := ReadTable(bytes.NewReader(stream)); (err == nil) != (i == 0) {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
	// The canonical forms the rejected streams stood in for.
	for _, tbl := range []*Table{tableOf(k, v, v), tableOf(k, constant(8, 5))} {
		if _, err := ReadTable(bytes.NewReader(encodeTable(t, tbl))); err != nil {
			t.Errorf("canonical stream refused: %v", err)
		}
	}
	// Padding bits: 15 two-bit codes leave two spare bits in the last byte.
	pad := column(1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3)
	blob := encodeTable(t, pad)
	if blob[len(wireHeader(pad))] != encDict {
		t.Fatal("fixture is not a dictionary column")
	}
	blob[len(blob)-1] |= 0x80
	if _, err := ReadTable(bytes.NewReader(blob)); err == nil {
		t.Error("set padding bits accepted")
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
	b = append(b, encRLE, 0)
	return binary.AppendUvarint(b, 1<<40)
}
