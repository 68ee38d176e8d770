package stats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func sampleStore() *Store {
	a := workflow.Attr{Rel: "Orders", Col: "cid"}
	b := workflow.Attr{Rel: "Orders", Col: "pid"}
	st := NewStore()
	st.Put(&Value{Stat: NewCard(BlockSE(0, expr.NewSet(0))), Scalar: 12345})
	st.Put(&Value{Stat: NewCard(BlockSE(2, expr.NewSet(0, 1))), Scalar: 77})
	st.Put(&Value{Stat: NewDistinct(BlockSE(0, expr.NewSet(1)), a), Scalar: 42})
	st.Put(&Value{Stat: NewCard(BlockRejectSE(0, expr.NewSet(0, 2), 0, 1)), Scalar: 9})
	st.Put(&Value{Stat: NewCard(ChainPoint(1, 0, 2)), Scalar: 3})
	h := NewHistogram(a, b)
	h.Inc([]int64{1, 10}, 5)
	h.Inc([]int64{-3, 20}, 2)
	h.Inc([]int64{7, 10}, 1)
	st.Put(&Value{Stat: NewHist(BlockSE(0, expr.NewSet(0)), a, b), Hist: h})
	return st
}

// retiredSketchStream returns a checked-in version-2 stream written while
// the sketch kinds (HyperLogLog distinct counts, kind byte 3; count-min
// histograms, kind byte 4) were registered: an exact cardinality, then one
// value of each retired kind.
func retiredSketchStream(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzReadStore/retired_sketch_kinds")
	if err != nil {
		tb.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
	in, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		tb.Fatalf("corpus entry: %v", err)
	}
	return []byte(in)
}

// TestReadStoreRefusesRetiredKinds: the checked-in version-2 stream, its
// version-1 downgrade, and a current stream labelled version 3 (whose
// histograms were ETBL4 tables) are refused by their version, which the
// refusal names beside the one this build reads; a current stream carrying a
// retired sketch kind byte is refused as an unknown kind.
func TestReadStoreRefusesRetiredKinds(t *testing.T) {
	for _, version := range []byte{3, 2, 1} {
		stream := retiredSketchStream(t)
		if version == 3 {
			stream = validStream(t)
		}
		in := append([]byte(nil), stream...)
		in[len(persistMagic)] = version
		fe := wantCorrupt(t, in, fmt.Sprintf("v%d stream", version))
		if fe.BadKind != -1 || fe.Version != uint32(version) || fe.Offset != int64(len(persistMagic)+1) {
			t.Fatalf("v%d: refusal carries kind %d version %d offset %d", version, fe.BadKind, fe.Version, fe.Offset)
		}
		if want := fmt.Sprintf("version %d stream, this build reads only version %d", version, persistVersion); !strings.Contains(fe.Error(), want) {
			t.Fatalf("v%d: refusal %q does not say %q", version, fe.Error(), want)
		}
	}
	st := NewStore()
	st.Put(&Value{Stat: NewCard(BlockSE(0, expr.NewSet(0))), Scalar: 1})
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Magic, version and count, then the value's kind byte.
	kindOff := len(persistMagic) + 2
	for _, kind := range []byte{3, 4} {
		in := append([]byte(nil), buf.Bytes()...)
		in[kindOff] = kind
		fe := wantCorrupt(t, in, fmt.Sprintf("v%d kind %d", persistVersion, kind))
		if fe.BadKind != int(kind) || fe.Version != persistVersion || fe.Offset != int64(kindOff+1) {
			t.Fatalf("v%d kind %d: refusal carries kind %d version %d offset %d", persistVersion, kind, fe.BadKind, fe.Version, fe.Offset)
		}
	}
}

// TestPersistUnknownKindTyped: the forward-compatibility rejection carries
// the unknown kind byte and the stream version.
func TestPersistUnknownKindTyped(t *testing.T) {
	// v4 header, one statistic, kind byte 9, padded past the minimal value
	// length so the size pre-check does not fire first.
	in := append([]byte("ETLSTAT\x04\x01\x09"), make([]byte, 64)...)
	_, err := ReadStore(bytes.NewReader(in))
	var fe *formatError
	if !errors.As(err, &fe) || !errors.Is(err, errCorrupt) {
		t.Fatalf("want *FormatError wrapping ErrCorrupt, got %v", err)
	}
	if fe.BadKind != 9 || fe.Version != 4 {
		t.Fatalf("FormatError carries kind %d version %d, want 9/4", fe.BadKind, fe.Version)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	st := sampleStore()
	var buf bytes.Buffer
	n, err := st.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadStore(&buf)
	if err != nil {
		t.Fatalf("ReadStore: %v", err)
	}
	if back.Len() != st.Len() {
		t.Fatalf("round trip lost values: %d vs %d", back.Len(), st.Len())
	}
	for _, v := range st.Values() {
		gv, ok := back.Get(v.Stat)
		if !ok {
			t.Errorf("%v lost in the round trip", v.Stat.Key())
			continue
		}
		if v.Hist == nil {
			if gv.Scalar != v.Scalar {
				t.Errorf("scalar %v: got %d, want %d", v.Stat.Key(), gv.Scalar, v.Scalar)
			}
			continue
		}
		got := gv.Hist
		if got.Buckets() != v.Hist.Buckets() || got.Total() != v.Hist.Total() {
			t.Errorf("hist %v: %d/%d buckets, %d/%d total",
				v.Stat.Key(), got.Buckets(), v.Hist.Buckets(), got.Total(), v.Hist.Total())
		}
		v.Hist.Each(func(vals []int64, f int64) {
			if got.Freq(vals...) != f {
				t.Errorf("hist %v: bucket %v = %d, want %d", v.Stat.Key(), vals, got.Freq(vals...), f)
			}
		})
	}
}

func TestPersistDeterministic(t *testing.T) {
	st := sampleStore()
	var a, b bytes.Buffer
	if _, err := st.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}

func TestPersistErrors(t *testing.T) {
	if _, err := ReadStore(strings.NewReader("")); err == nil {
		t.Fatal("empty input: want error")
	}
	if _, err := ReadStore(strings.NewReader("NOTMAGIC-----")); err == nil {
		t.Fatal("bad magic: want error")
	}
	// Truncated stream after a valid header.
	st := sampleStore()
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadStore(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated input: want error")
	}
}

// validStream serializes the sample store.
func validStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := sampleStore().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantCorrupt asserts the stream is rejected with a typed FormatError.
func wantCorrupt(t *testing.T, in []byte, what string) *formatError {
	t.Helper()
	_, err := ReadStore(bytes.NewReader(in))
	if err == nil {
		t.Fatalf("%s: want error, got nil", what)
	}
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("%s: error not tagged ErrCorrupt: %v", what, err)
	}
	var fe *formatError
	if !errors.As(err, &fe) {
		t.Fatalf("%s: error is not a *FormatError: %v", what, err)
	}
	return fe
}

func TestReadStoreRejectsCorruptStreams(t *testing.T) {
	valid := validStream(t)

	// Typed truncation errors at every prefix length.
	for cut := 0; cut < len(valid); cut++ {
		fe := wantCorrupt(t, valid[:cut], "truncation")
		if fe.Offset > int64(cut) {
			t.Fatalf("cut %d: offset %d past available bytes", cut, fe.Offset)
		}
	}

	// Trailing data after the declared values.
	wantCorrupt(t, append(append([]byte{}, valid...), 0), "trailing byte")

	// A count header larger than the stream can possibly hold is rejected
	// at the header, before any value parsing.
	hostile := append([]byte("ETLSTAT\x04\xff\xff\x03"), valid[9:]...) // count = 65535
	fe := wantCorrupt(t, hostile, "oversized count")
	if fe.Offset != 11 {
		t.Fatalf("oversized count detected at byte %d, want 11 (end of header)", fe.Offset)
	}
	if !strings.Contains(fe.Msg, "count 65535") {
		t.Fatalf("oversized count message %q does not name the count", fe.Msg)
	}

	// So is a count past any stream, when the size is unknown.
	capped := []byte("ETLSTAT\x04\xff\xff\xff\xff\x0f")
	if _, err := ReadStore(iotest.OneByteReader(bytes.NewReader(capped))); !errors.Is(err, errCorrupt) {
		t.Fatalf("capped count on size-unknown stream: got %v", err)
	}

	// Unknown statistic kind.
	bad := append([]byte{}, valid...)
	bad[9] = 0x7f
	wantCorrupt(t, bad, "unknown kind")

	// A padded varint spells a number twice.
	wantCorrupt(t, append([]byte("ETLSTAT\x83\x00"), valid[8:]...), "non-minimal version")

	// Duplicate / out-of-order values: duplicate the first value bytes in
	// a two-value stream.
	st := NewStore()
	st.Put(&Value{Stat: NewCard(BlockSE(0, expr.NewSet(0))), Scalar: 1})
	var one bytes.Buffer
	if _, err := st.WriteTo(&one); err != nil {
		t.Fatal(err)
	}
	val := one.Bytes()[9:] // the single value's encoding
	dup := append([]byte("ETLSTAT\x04\x02"), val...)
	dup = append(dup, val...)
	wantCorrupt(t, dup, "duplicate statistic")
}

// histStream is a version-4 stream of one histogram statistic whose
// sections are tabs as data.WriteTable writes them, canonical for the store
// or not.
func histStream(tb testing.TB, tabs ...*data.Table) []byte {
	tb.Helper()
	var secs [][]byte
	for _, tab := range tabs {
		var sec bytes.Buffer
		if err := data.WriteTable(&sec, tab); err != nil {
			tb.Fatal(err)
		}
		secs = append(secs, sec.Bytes())
	}
	return rawHistStream(tb, secs...)
}

// rawHistStream is a version-4 stream of one histogram statistic whose
// sections are secs, each behind its length.
func rawHistStream(tb testing.TB, secs ...[]byte) []byte {
	tb.Helper()
	a := workflow.Attr{Rel: "T", Col: "a"}
	st := NewStore()
	st.Put(&Value{Stat: NewHist(BlockSE(0, expr.NewSet(0)), a), Hist: NewHistogram(a)})
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	// Magic, version, count, kind and five target fields precede the
	// section length.
	in := bytes.Clone(buf.Bytes()[:15])
	for _, sec := range secs {
		in = append(binary.AppendUvarint(in, uint64(len(sec))), sec...)
	}
	return in
}

// histTab is a histogram section's table over the attributes named by
// cols, then the count column.
func histTab(rows []data.Row, cols ...string) *data.Table {
	t := &data.Table{Rows: rows}
	for _, c := range cols {
		t.Attrs = append(t.Attrs, workflow.Attr{Rel: "T", Col: c})
	}
	t.Attrs = append(t.Attrs, countAttr)
	return t
}

// TestReadStoreRejectsNonCanonicalForm: a histogram section must be the
// table the writer lays out — buckets strictly ascending, counts non-zero,
// sorted attributes, relation "" and the count column last — and each
// departure is refused with the problem named.
func TestReadStoreRejectsNonCanonicalForm(t *testing.T) {
	if _, err := ReadStore(bytes.NewReader(histStream(t, histTab([]data.Row{{5, 3}, {9, 1}}, "a")))); err != nil {
		t.Fatalf("the canonical section is refused: %v", err)
	}
	noCount := histTab([]data.Row{{5}}, "a")
	noCount.Attrs = noCount.Attrs[:1]
	named := histTab([]data.Row{{5, 3}}, "a")
	named.Rel = "T"
	for _, c := range []struct {
		what string
		tab  *data.Table
		msg  string
	}{
		{"rows out of order", histTab([]data.Row{{9, 1}, {5, 3}}, "a"), "buckets not in canonical order"},
		{"duplicate bucket", histTab([]data.Row{{5, 1}, {5, 3}}, "a"), "buckets not in canonical order"},
		{"zero count", histTab([]data.Row{{5, 0}}, "a"), "zero-count bucket"},
		{"no count column", noCount, "ending in the count column"},
		{"named relation", named, "ending in the count column"},
		{"nil table", nil, "ending in the count column"},
		{"attributes out of order", histTab([]data.Row{{5, 1, 3}}, "b", "a"), "attributes not in canonical order"},
	} {
		fe := wantCorrupt(t, histStream(t, c.tab), c.what)
		if !strings.Contains(fe.Msg, c.msg) {
			t.Errorf("%s: refusal %q does not say %q", c.what, fe.Msg, c.msg)
		}
	}
}

// TestReadStoreCanonical: the reader accepts exactly the canonical
// encoding, so read-then-write reproduces the input bytes.
func TestReadStoreCanonical(t *testing.T) {
	valid := validStream(t)
	st, err := ReadStore(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := st.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), valid) {
		t.Fatal("read-then-write changed the stream")
	}
}

// TestReadStoreSizeUnknown: the same valid stream parses through a reader
// that exposes neither Len nor Seek.
func TestReadStoreSizeUnknown(t *testing.T) {
	valid := validStream(t)
	st, err := ReadStore(iotest.OneByteReader(bytes.NewReader(valid)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != sampleStore().Len() {
		t.Fatalf("size-unknown parse lost values: %d", st.Len())
	}
}

// TestReadStoreSizeUnknownLyingBucketCount: on a stream whose size is
// unknown a histogram section's declared length cannot be checked up front,
// so a section declaring 2^30 bytes over a short body must fail as
// truncated, having allocated for the bytes that arrived and not for the
// declared length.
func TestReadStoreSizeUnknownLyingBucketCount(t *testing.T) {
	valid := histStream(t, histTab([]data.Row{{5, 3}}, "a"))
	// The section length is the one byte after the 15-byte value header.
	lying := append(binary.AppendUvarint(valid[:15:15], 1<<30), valid[16:]...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadStore(iotest.OneByteReader(bytes.NewReader(lying)))
	runtime.ReadMemStats(&after)
	var fe *formatError
	if !errors.Is(err, errCorrupt) || !errors.As(err, &fe) || !strings.Contains(fe.Msg, "truncated") {
		t.Fatalf("lying section length on a size-unknown stream: got %v, want a truncation error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading the lying stream allocated %d bytes, want under 1 MiB", got)
	}
}

// TestReadStoreHostileSectionBounded: a histogram section's rows are capped
// by its length and histSectionRows, and its cells by histCellsPerByte of
// its bytes, before the reader sizes anything. A 1 MiB section then costs
// its reader at most histCellsPerByte cells of 16 bytes (decoded columns,
// then rows) a byte, and little more: both when junk follows a header
// declaring the widest shape the caps allow, and when the section decodes
// whole, at the cell cap, into duplicate buckets. One column more is
// refused before anything is sized.
func TestReadStoreHostileSectionBounded(t *testing.T) {
	const size = 1 << 20
	const wide = histCellsPerByte * size / histSectionRows // columns at the cell cap
	junk := func(cols int) []byte {
		hdr := binary.AppendUvarint([]byte("ETBL5\x01\x00"), uint64(cols))
		hdr = append(hdr, make([]byte, 2*cols)...) // every attribute ""."" (refused later)
		hdr = binary.AppendUvarint(hdr, histSectionRows)
		return append(hdr, bytes.Repeat([]byte{0xff}, size-len(hdr))...)
	}

	// 64 columns of byte-wide dictionary codes fill the section, the rest
	// are constant; every row is written twice.
	dup := &data.Table{}
	for c := range wide {
		dup.Attrs = append(dup.Attrs, workflow.Attr{Rel: "T", Col: fmt.Sprintf("c%03d", c)})
	}
	dup.Attrs[wide-1] = countAttr
	rng := rand.New(rand.NewPCG(1, 2))
	for range histSectionRows / 2 {
		row := make(data.Row, wide)
		for c := range 64 {
			row[c] = rng.Int64N(200)
		}
		row[wide-1] = 1
		dup.Rows = append(dup.Rows, row, row)
	}
	var sec bytes.Buffer
	if err := data.WriteTable(&sec, dup); err != nil {
		t.Fatal(err)
	}
	if cells := histSectionRows * wide; cells > histCellsPerByte*sec.Len() || sec.Len() < size {
		t.Fatalf("duplicate-row section: %d cells in %d bytes, want at the cap of a 1 MiB section", cells, sec.Len())
	}
	capped := uint64(16*histCellsPerByte + 32) // bytes allocated a section byte
	for _, c := range []struct {
		what, msg string
		sec       []byte
		perByte   uint64
	}{
		{"junk after the widest header", "unknown encoding tag", junk(wide), capped},
		{"duplicate rows at the cell cap", "buckets not in canonical order", sec.Bytes(), capped},
		// Only the stream's copies: the cells alone would cost 64 a byte.
		{"a header one column over the cell cap", "exceeds the wire cell cap", junk(wide + 1), 16},
	} {
		in := rawHistStream(t, c.sec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadStore(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		var fe *formatError
		if !errors.As(err, &fe) || !strings.Contains(fe.Msg, c.msg) {
			t.Fatalf("%s: got %v, want a refusal saying %q", c.what, err, c.msg)
		}
		got, bound := after.TotalAlloc-before.TotalAlloc, c.perByte*uint64(len(c.sec))
		t.Logf("%s: %d-byte section, %d bytes allocated (%.1f a byte)", c.what, len(c.sec), got, float64(got)/float64(len(c.sec)))
		if got > bound {
			t.Errorf("%s: refusing a %d-byte section allocated %d bytes, want at most %d", c.what, len(c.sec), got, bound)
		}
	}
}

// denseHist is a histogram of n buckets over arity attributes that its
// section stores in about a byte a bucket: the first attribute climbs in
// runs of 256, the second counts through each run, the rest are constant.
func denseHist(arity, n int) *Value {
	attrs := make([]workflow.Attr, arity)
	for i := range attrs {
		attrs[i] = workflow.Attr{Rel: "T", Col: fmt.Sprintf("a%d", i)}
	}
	h := NewHistogram(attrs...)
	vals := make([]int64, arity)
	for i := range n {
		vals[0], vals[1] = int64(i/256), int64(i%256)
		h.Inc(vals, 1)
	}
	return &Value{Stat: NewHist(BlockSE(0, expr.NewSet(0)), attrs...), Hist: h}
}

// TestWriteToRefusesDenseHistogram pins the store's one size limit: a
// section may hold histCellsPerByte cells a byte, which every histogram of
// up to 7 attributes meets. A denser one, of 8 attributes here, is refused
// by WriteTo as data.ErrWireCap, the refusal the reader would give it.
func TestWriteToRefusesDenseHistogram(t *testing.T) {
	for _, c := range []struct {
		arity int
		ok    bool
	}{{7, true}, {8, false}} {
		st := NewStore()
		st.Put(denseHist(c.arity, 8192))
		var buf bytes.Buffer
		_, err := st.WriteTo(&buf)
		switch {
		case c.ok && err != nil:
			t.Fatalf("arity %d: %v", c.arity, err)
		case c.ok:
			if _, err := ReadStore(&buf); err != nil {
				t.Fatalf("arity %d: written, then refused: %v", c.arity, err)
			}
		case !errors.Is(err, data.ErrWireCap) || !strings.Contains(err.Error(), "over the reader's 8 a byte"):
			t.Fatalf("arity %d: got %v, want the reader's cell cap refusal", c.arity, err)
		}
	}
}

// TestWriteToRefusesSparseSection: the reader caps a section's rows at its
// length. Distinct buckets spend a byte a bucket or more in every layout the
// table codec has (data.ReadTableRows), so WriteTo writes no section under
// the cap: here the third attribute counts 0-3 along each run of four of the
// second, which cycles through 64 values — a histogram the retired chain
// columns took under a byte a bucket — and it is written and reads back. A
// crafted section of 1,000 equal rows, each column one run, is refused as
// the cap's corrupt stream.
func TestWriteToRefusesSparseSection(t *testing.T) {
	attrs := []workflow.Attr{{Rel: "T", Col: "a"}, {Rel: "T", Col: "b"}, {Rel: "T", Col: "c"}}
	h := NewHistogram(attrs...)
	for i := range int64(8192) {
		h.Inc([]int64{i / 256, i / 4 % 64, i % 4}, 1)
	}
	st := NewStore()
	st.Put(&Value{Stat: NewHist(BlockSE(0, expr.NewSet(0)), attrs...), Hist: h})
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStore(&buf); err != nil {
		t.Fatalf("written, then refused: %v", err)
	}
	equal := &data.Table{Attrs: []workflow.Attr{attrs[0], countAttr}}
	for range 1000 {
		equal.Rows = append(equal.Rows, data.Row{1, 1})
	}
	fe := wantCorrupt(t, histStream(t, equal), "a section of more rows than bytes")
	if !strings.Contains(fe.Msg, "exceeds the wire cell cap") {
		t.Errorf("refusal %q does not name the cap", fe.Msg)
	}
}

// TestPersistSplitsLargeHistograms: a histogram of more than
// histSectionRows buckets travels in full sections and a last short one
// (empty when the buckets divide evenly), round-trips exactly, and each
// departure from that layout is refused.
func TestPersistSplitsLargeHistograms(t *testing.T) {
	for _, n := range []int{histSectionRows - 1, histSectionRows, 2*histSectionRows + 5} {
		st := NewStore()
		st.Put(denseHist(2, n))
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadStore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%d buckets: %v", n, err)
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if got := back.Values()[0].Hist.Buckets(); got != n || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("%d buckets: read back %d, rewrite equal %v", n, got, bytes.Equal(again.Bytes(), buf.Bytes()))
		}
	}
	rows := func(lo, n int) []data.Row {
		var out []data.Row
		for i := lo; i < lo+n; i++ {
			out = append(out, data.Row{int64(i), 1})
		}
		return out
	}
	full := histTab(rows(0, histSectionRows), "a")
	ones := make([]data.Row, 50) // fifty empty buckets: one constant column
	for i := range ones {
		ones[i] = data.Row{1}
	}
	for _, c := range []struct {
		what, msg string
		tabs      []*data.Table
	}{
		{"no section after a full one", "truncated histogram section length", []*data.Table{full}},
		{"a section over the row cap", "exceeds the wire cell cap", []*data.Table{histTab(rows(0, histSectionRows+1), "a")}},
		{"more rows than the section has bytes", "exceeds the wire cell cap", []*data.Table{histTab(ones)}},
		{"buckets out of order across sections", "buckets not in canonical order", []*data.Table{full, histTab(rows(5, 1), "a")}},
		{"a continuation over other attributes", "continues one over", []*data.Table{full, histTab(rows(histSectionRows, 1), "b")}},
	} {
		fe := wantCorrupt(t, histStream(t, c.tabs...), c.what)
		if !strings.Contains(fe.Msg, c.msg) {
			t.Errorf("%s: refusal %q does not say %q", c.what, fe.Msg, c.msg)
		}
	}
}

// failAfterWriter accepts the first limit bytes, then fails every write.
type failAfterWriter struct {
	limit int
	n     int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		room := w.limit - w.n
		if room < 0 {
			room = 0
		}
		w.n += room
		return room, errFull
	}
	w.n += len(p)
	return len(p), nil
}

var errFull = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "device full" }

func TestWriteToPropagatesWriteError(t *testing.T) {
	st := sampleStore()
	var ref bytes.Buffer
	if _, err := st.WriteTo(&ref); err != nil {
		t.Fatal(err)
	}
	// Fail at every prefix length: the error must always surface, and the
	// reported byte count must match what the sink actually accepted —
	// buffered-but-unflushed bytes must not be counted.
	for limit := 0; limit < ref.Len(); limit += 7 {
		w := &failAfterWriter{limit: limit}
		n, err := st.WriteTo(w)
		if err == nil {
			t.Fatalf("limit %d: want write error, got nil", limit)
		}
		if n != int64(w.n) {
			t.Fatalf("limit %d: WriteTo reported %d bytes, sink accepted %d", limit, n, w.n)
		}
	}
}

func TestPersistQuickScalars(t *testing.T) {
	f := func(vals []int64) bool {
		st := NewStore()
		for i, v := range vals {
			if i > 30 {
				break
			}
			st.Put(&Value{Stat: NewCard(BlockSE(i%3, expr.NewSet(i%8))), Scalar: v})
		}
		var buf bytes.Buffer
		if _, err := st.WriteTo(&buf); err != nil {
			return false
		}
		back, err := ReadStore(&buf)
		if err != nil || back.Len() != st.Len() {
			return false
		}
		for _, v := range st.Values() {
			if got, ok := back.Get(v.Stat); !ok || got.Scalar != v.Scalar {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDriftMeasurement(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	mk := func(card int64, histVals map[int64]int64) *Store {
		st := NewStore()
		st.Put(&Value{Stat: NewCard(BlockSE(0, expr.NewSet(0))), Scalar: card})
		h := NewHistogram(a)
		for v, f := range histVals {
			h.Inc([]int64{v}, f)
		}
		st.Put(&Value{Stat: NewHist(BlockSE(0, expr.NewSet(0)), a), Hist: h})
		return st
	}
	old := mk(100, map[int64]int64{1: 50, 2: 50})

	// Identical stores: zero drift.
	d := MeasureDrift(old, mk(100, map[int64]int64{1: 50, 2: 50}))
	if d.MaxRel != 0 || d.Shared != 2 {
		t.Fatalf("identical drift = %+v", d)
	}
	if d.Exceeds(0.01) {
		t.Fatal("identical stores should not exceed any threshold")
	}

	// Cardinality doubled: 0.5 relative change.
	d = MeasureDrift(old, mk(200, map[int64]int64{1: 50, 2: 50}))
	if d.MaxRel != 0.5 {
		t.Fatalf("doubled card drift = %v, want 0.5", d.MaxRel)
	}
	if !d.Exceeds(0.3) {
		t.Fatal("0.5 drift must exceed 0.3")
	}

	// Completely shifted distribution: histogram drift near 1.
	d = MeasureDrift(old, mk(100, map[int64]int64{7: 50, 8: 50}))
	if d.MaxRel < 0.99 {
		t.Fatalf("disjoint hist drift = %v, want ≈1", d.MaxRel)
	}

	// Differing instrumentation is counted, not compared.
	other := NewStore()
	other.Put(&Value{Stat: NewCard(BlockSE(0, expr.NewSet(5))), Scalar: 1})
	d = MeasureDrift(old, other)
	if d.Shared != 0 || d.OnlyOld != 2 || d.OnlyNew != 1 {
		t.Fatalf("disjoint stores drift = %+v", d)
	}
}
