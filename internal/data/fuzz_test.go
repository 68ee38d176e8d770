package data

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadCSV drives the flat-file reader with arbitrary bytes. The reader
// is the framework's only parser of external input (the paper's
// no-statistics worst case loads plain CSV files), so it must reject
// malformed input with an error — never a panic — and every table it does
// accept must be internally consistent and survive a write/re-read round
// trip.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("k,val\n1,2\n3,4\n"))
	f.Add([]byte("k\n"))                            // header only
	f.Add([]byte("k,k\n1,2\n"))                     // duplicate column
	f.Add([]byte("k, \n1,2\n"))                     // blank column name
	f.Add([]byte("k,val\n1\n"))                     // ragged row
	f.Add([]byte("k,val\n1,x\n"))                   // non-integer field
	f.Add([]byte("k,val\n1,\"2\n"))                 // unterminated quote
	f.Add([]byte("\"a,b\",c\n\"1\",  2 \n"))        // quoted comma, padded int
	f.Add([]byte("k,val\r\n1,2\r\n"))               // CRLF
	f.Add([]byte("k,val\n9223372036854775808,1\n")) // int64 overflow
	f.Add([]byte(""))                               // empty input
	f.Add([]byte("\xff\xfe,\x00\n1,2\n"))           // junk bytes
	f.Add([]byte("\"0\r\r\n\"\"\"\n"))              // "\r\n" in a quoted name reads back as "\n"

	f.Fuzz(func(t *testing.T, in []byte) {
		tbl, err := readCSV(bytes.NewReader(in), "fuzz")
		if err != nil {
			return // rejected cleanly — the property under test
		}
		if tbl == nil {
			t.Fatal("nil table with nil error")
		}
		seen := make(map[string]bool, len(tbl.Attrs))
		for _, a := range tbl.Attrs {
			name := a.Col
			if name == "" || name != strings.TrimSpace(name) {
				t.Fatalf("accepted unnormalized column name %q", name)
			}
			if seen[name] {
				t.Fatalf("accepted duplicate column name %q", name)
			}
			seen[name] = true
		}
		for i, row := range tbl.Rows {
			if len(row) != len(tbl.Attrs) {
				t.Fatalf("row %d has %d fields, table has %d columns", i, len(row), len(tbl.Attrs))
			}
		}
		// Catalog inference must accept anything the reader accepts.
		InferCatalog(map[string]*Table{"fuzz": tbl})

		// Round trip: writing the accepted table and re-reading it must
		// reproduce it exactly (the writer quotes whatever the reader let
		// through).
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tbl); err != nil {
			t.Fatalf("write accepted table: %v", err)
		}
		back, err := readCSV(bytes.NewReader(buf.Bytes()), "fuzz")
		if err != nil {
			t.Fatalf("re-read written table: %v\ninput: %q", err, buf.Bytes())
		}
		if len(back.Attrs) != len(tbl.Attrs) || len(back.Rows) != len(tbl.Rows) {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				len(tbl.Rows), len(tbl.Attrs), len(back.Rows), len(back.Attrs))
		}
		for i, a := range tbl.Attrs {
			if back.Attrs[i].Col != a.Col {
				t.Fatalf("round trip changed column %d: %q -> %q", i, a.Col, back.Attrs[i].Col)
			}
		}
		for i, row := range tbl.Rows {
			for j, v := range row {
				if back.Rows[i][j] != v {
					t.Fatalf("round trip changed row %d column %d: %d -> %d", i, j, v, back.Rows[i][j])
				}
			}
		}
	})
}

// fuzzWireCells is the cell cap FuzzReadTable decodes under. The real cap
// admits tables of half a gigabyte, and a run or a constant column reaches
// it from a dozen mutated bytes; the cap's own logic is the same at any
// value (TestTableWireCellCap pins it at the real one).
const fuzzWireCells = 1 << 16

// FuzzReadTable drives the table wire reader — what a worker hands any
// peer that can reach its port — with arbitrary bytes. It must fail with
// an error, never a panic, and because the format is canonical a stream it
// does accept must be exactly what WriteTable emits for the decoded table.
func FuzzReadTable(f *testing.F) {
	f.Add(encodeTable(f, nil))
	f.Add(encodeTable(f, column()))
	for _, seed := range []struct {
		tbl *Table
		tag byte // the last column's encoding
	}{
		{column(serialKey(40)...), encPlain},
		{column(constant(40, -3)...), encRLE},
		{column(shift(zipfDomain(40, 5), 1000)...), encDict},
		{column(constant(20000, 9)...), encDict}, // width 0
		{mixedTable(), encDict},
		{hashJoin(rand.New(rand.NewSource(4))), encPlain},
	} {
		if tags := columnPlans(f, seed.tbl); tags[len(tags)-1] != seed.tag {
			f.Fatalf("seed encodes its last column with tag %d, want %d", tags[len(tags)-1], seed.tag)
		}
		f.Add(encodeTable(f, seed.tbl))
	}
	// The retired map and chain tags, in the layout they had: an earlier
	// column, then an image over its values. Both are refused.
	two := tableOf([]int64{1, 2, 1, 2}, []int64{5, 6, 5, 6})
	for _, tag := range []byte{3, 4} {
		f.Add(append(append(wireHeader(two), encPlain, 2, 4, 2, 4), tag, 0, 10, 12))
	}
	small := encodeTable(f, &Table{Rel: "S", Attrs: mixedTable().Attrs[:3], Rows: []Row{{1, 7, 2}, {2, 7, 3}, {3, 7, 2}, {900, 7, 3}}})
	for n := 0; n < len(small); n++ {
		f.Add(small[:n])
	}
	f.Add(rowBomb())

	f.Fuzz(func(t *testing.T, in []byte) {
		tbl, err := ReadTableRows(bytes.NewReader(in), maxWireCells, fuzzWireCells)
		if err != nil {
			return // rejected cleanly — the property under test
		}
		if tbl != nil {
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Attrs) {
					t.Fatalf("row %d has %d values, table has %d columns", i, len(row), len(tbl.Attrs))
				}
			}
		}
		if again := encodeTable(t, tbl); !bytes.Equal(again, in) {
			t.Fatalf("accepted a non-canonical stream:\n   in % x\nagain % x", in, again)
		}
	})
}
