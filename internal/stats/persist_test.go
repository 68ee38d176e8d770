package stats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

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

// TestReadStoreRefusesRetiredKinds: a stream carrying a retired sketch kind
// is refused through the unknown-kind rejection, in either version, and
// carries the kind byte.
func TestReadStoreRefusesRetiredKinds(t *testing.T) {
	stream := retiredSketchStream(t)
	// The first value is a scalar cardinality; the kind byte of the second
	// follows it.
	kindOff := persistHeaderLen + minValueLen
	for _, tc := range []struct {
		version uint32
		kind    byte
	}{{2, 3}, {2, 4}, {1, 3}, {1, 4}} {
		in := append([]byte(nil), stream...)
		binary.LittleEndian.PutUint32(in[len(persistMagic):], tc.version)
		in[kindOff] = tc.kind
		_, err := ReadStore(bytes.NewReader(in))
		var fe *formatError
		if !errors.As(err, &fe) || !errors.Is(err, errCorrupt) {
			t.Fatalf("v%d kind %d: want *formatError wrapping errCorrupt, got %v", tc.version, tc.kind, err)
		}
		if fe.BadKind != int(tc.kind) || fe.Version != tc.version || fe.Offset != int64(kindOff+1) {
			t.Fatalf("v%d kind %d: refusal carries kind %d version %d offset %d", tc.version, tc.kind, fe.BadKind, fe.Version, fe.Offset)
		}
	}
}

// TestPersistUnknownKindTyped: the forward-compatibility rejection carries
// the unknown kind byte and the stream version.
func TestPersistUnknownKindTyped(t *testing.T) {
	// v2 header, one statistic, kind byte 9, padded past the minimal value
	// length so the size pre-check does not fire first.
	in := append([]byte("ETLSTAT\x02\x00\x00\x00\x01\x00\x00\x00\x09"), make([]byte, 64)...)
	_, err := ReadStore(bytes.NewReader(in))
	var fe *formatError
	if !errors.As(err, &fe) || !errors.Is(err, errCorrupt) {
		t.Fatalf("want *FormatError wrapping ErrCorrupt, got %v", err)
	}
	if fe.BadKind != 9 || fe.Version != 2 {
		t.Fatalf("FormatError carries kind %d version %d, want 9/2", fe.BadKind, fe.Version)
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
	// immediately (seekable/sized input), at the header, before any value
	// parsing.
	hostile := append([]byte{}, valid...)
	hostile[11], hostile[12], hostile[13], hostile[14] = 0xff, 0xff, 0x00, 0x00 // count = 65535
	fe := wantCorrupt(t, hostile, "oversized count")
	if fe.Offset != 15 {
		t.Fatalf("oversized count detected at byte %d, want 15 (end of header)", fe.Offset)
	}
	if !strings.Contains(fe.Msg, "count 65535") {
		t.Fatalf("oversized count message %q does not name the count", fe.Msg)
	}

	// Counts beyond the absolute cap fail even when the size is unknown.
	capped := append([]byte("ETLSTAT\x01\x00\x00\x00"), 0xff, 0xff, 0xff, 0xff)
	if _, err := ReadStore(iotest.OneByteReader(bytes.NewReader(capped))); err == nil {
		t.Fatal("capped count on size-unknown stream: want error")
	}

	// Unknown statistic kind.
	bad := append([]byte{}, valid...)
	bad[15] = 0x7f
	wantCorrupt(t, bad, "unknown kind")

	// Duplicate / out-of-order values: duplicate the first value bytes in
	// a two-value stream.
	st := NewStore()
	st.Put(&Value{Stat: NewCard(BlockSE(0, expr.NewSet(0))), Scalar: 1})
	var one bytes.Buffer
	if _, err := st.WriteTo(&one); err != nil {
		t.Fatal(err)
	}
	val := one.Bytes()[15:] // the single value's encoding
	dup := append([]byte("ETLSTAT\x01\x00\x00\x00\x02\x00\x00\x00"), val...)
	dup = append(dup, val...)
	wantCorrupt(t, dup, "duplicate statistic")
}

func TestReadStoreRejectsNonCanonicalForm(t *testing.T) {
	// Zero-frequency bucket: hand-craft a single-histogram stream and zero
	// the frequency of its only bucket.
	a := workflow.Attr{Rel: "T", Col: "a"}
	st := NewStore()
	h := NewHistogram(a)
	h.Inc([]int64{5}, 3)
	st.Put(&Value{Stat: NewHist(BlockSE(0, expr.NewSet(0)), a), Hist: h})
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// The frequency is the last 8 bytes.
	zeroed := append([]byte{}, b...)
	copy(zeroed[len(zeroed)-8:], make([]byte, 8))
	wantCorrupt(t, zeroed, "zero-frequency bucket")

	// Shape flag contradicting the kind: flip the histogram statistic's
	// shape flag (the byte before the bucket count, i.e. 13 bytes from the
	// end: flag + count + one bucket value + freq).
	flipped := append([]byte{}, b...)
	flipped[len(flipped)-21] = 0
	wantCorrupt(t, flipped, "shape flag contradiction")
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
// unknown a histogram's bucket count cannot be checked against the bytes
// left, so a header declaring 2^30 buckets over a truncated body must fail
// as corrupt without allocating for the declared count.
func TestReadStoreSizeUnknownLyingBucketCount(t *testing.T) {
	a := workflow.Attr{Rel: "T", Col: "a"}
	st := NewStore()
	h := NewHistogram(a)
	h.Inc([]int64{5}, 3)
	st.Put(&Value{Stat: NewHist(BlockSE(0, expr.NewSet(0)), a), Hist: h})
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The bucket count is the 4 bytes before the one bucket (value and
	// frequency, 16 bytes).
	lying := append([]byte{}, buf.Bytes()...)
	binary.LittleEndian.PutUint32(lying[len(lying)-20:], maxHistBuckets)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadStore(iotest.OneByteReader(bytes.NewReader(lying)))
	runtime.ReadMemStats(&after)
	var fe *formatError
	if !errors.Is(err, errCorrupt) || !errors.As(err, &fe) || !strings.Contains(fe.Msg, "truncated") {
		t.Fatalf("lying bucket count on a size-unknown stream: got %v, want a truncation error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading the lying stream allocated %d bytes, want under 1 MiB", got)
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
