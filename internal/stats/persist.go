package stats

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Statistics persistence: an ETL workflow runs on a schedule, usually in a
// fresh process each time, so the statistics observed in one run must
// survive to optimize the next (the design-once / execute-repeatedly loop
// of the paper). The format is a compact little-endian binary stream with a
// version header; it is deterministic for a given store (values are written
// in canonical statistic order, histogram buckets in sorted value order).

const (
	persistMagic = "ETLSTAT"
	// persistVersion is the version WriteTo emits. Version 1 carried the
	// two-shape scalar/histogram union; version 2 added two sketch kinds
	// (bytes 3 and 4) that are since retired, so both versions now carry
	// the same two shapes and ReadStore accepts both, refusing a retired
	// kind byte as unknown.
	persistVersion = 2
	// persistVersionMin is the oldest version ReadStore accepts.
	persistVersionMin = 1

	// persistHeaderLen is magic + version + count.
	persistHeaderLen = len(persistMagic) + 4 + 4
	// minValueLen is the smallest encoding of one value: kind, five target
	// fields, attribute count, shape flag, scalar.
	minValueLen = 1 + 5*8 + 2 + 1 + 8
	// minAttrLen is the smallest encoding of one attribute (two empty
	// strings).
	minAttrLen = 2 + 2
	// bucketLen is the encoding of one histogram bucket of the given arity.
	// (arity value int64s plus the frequency).
	//
	// maxStatCount and maxHistBuckets bound the declared element counts
	// when the stream size is unknown (a pure io.Reader): a hostile header
	// cannot commit the reader to unbounded work up front, it can only make
	// it parse until the actual bytes run out. When the size is known
	// (files, byte buffers) the tighter bytes-remaining check below applies
	// instead.
	maxStatCount   = 1 << 24
	maxHistBuckets = 1 << 30
)

// errCorrupt tags statistics streams rejected as structurally invalid —
// bad magic, truncation, counts that exceed the stream, values out of
// range, non-canonical encodings. Detect it with errors.Is.
var errCorrupt = errors.New("corrupt statistics stream")

// formatError reports where and why a statistics stream was rejected. It
// wraps errCorrupt.
type formatError struct {
	// Offset is the byte offset at which the problem was detected.
	Offset int64
	// Msg describes the problem.
	Msg string
	// Version is the stream's declared format version (0 before the header
	// is parsed).
	Version uint32
	// BadKind is the unregistered statistic-kind byte that caused the
	// rejection, or -1 when the problem is not an unknown kind; the message
	// then tells "stream from a future format" from plain corruption.
	BadKind int
}

func (e *formatError) Error() string {
	s := fmt.Sprintf("stats: corrupt statistics stream at byte %d: %s", e.Offset, e.Msg)
	if e.BadKind >= 0 {
		s += fmt.Sprintf(" (unknown kind byte %d in version-%d stream)", e.BadKind, e.Version)
	}
	return s
}

func (e *formatError) Unwrap() error { return errCorrupt }

// WriteTo serializes the store. It implements io.WriterTo: the returned
// count is the number of bytes actually written to w, so the counter sits
// under the buffer (counting flushed bytes), not over it — and the final
// Flush error is propagated, which is where buffered write errors surface.
func (st *Store) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	if err := writeHeader(bw, st.Len()); err != nil {
		return cw.n, err
	}
	for _, v := range st.Values() {
		if err := writeValue(bw, v); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadStore deserializes a store written by WriteTo.
//
// The reader defends against corrupt or hostile streams: every declared
// count (statistics, attributes, histogram buckets) is validated against
// the remaining stream size when the size is knowable (files, byte
// buffers) and against hard caps when it is not; allocations grow with
// bytes actually consumed, never with declared counts alone; and the
// stream must be in the exact canonical form WriteTo produces (sorted
// attributes, sorted non-zero buckets, no duplicate statistics, no
// trailing bytes). Structural rejections are typed: the *formatError
// carries the byte offset, and its message says where the stream broke.
func ReadStore(r io.Reader) (*Store, error) {
	sr := &statReader{br: bufio.NewReader(r), size: streamSize(r)}
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(sr, magic); err != nil {
		return nil, sr.readErr("header", err)
	}
	if string(magic) != persistMagic {
		return nil, sr.corrupt("bad magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(sr, binary.LittleEndian, &version); err != nil {
		return nil, sr.readErr("version", err)
	}
	if version < persistVersionMin || version > persistVersion {
		return nil, sr.corrupt("unsupported version %d", version)
	}
	sr.version = version
	if err := binary.Read(sr, binary.LittleEndian, &count); err != nil {
		return nil, sr.readErr("count", err)
	}
	if count > maxStatCount {
		return nil, sr.corrupt("statistic count %d exceeds limit %d", count, maxStatCount)
	}
	if err := sr.checkRemaining(int64(count), minValueLen, "statistic"); err != nil {
		return nil, err
	}
	st := NewStore()
	var prev Key
	for i := uint32(0); i < count; i++ {
		v, err := readValue(sr)
		if err != nil {
			return nil, fmt.Errorf("stats: value %d: %w", i, err)
		}
		// The writer emits values in strictly ascending canonical key
		// order; this both rejects duplicates and keeps acceptance
		// equivalent to "WriteTo could have produced this".
		k := v.Stat.Key()
		if i > 0 && !keyLess(prev, k) {
			return nil, sr.corrupt("value %d: statistics not in canonical order (%v then %v)", i, prev, k)
		}
		prev = k
		if err := st.Put(v); err != nil {
			return nil, fmt.Errorf("stats: value %d: %w", i, err)
		}
	}
	if _, err := sr.br.ReadByte(); err != io.EOF {
		return nil, sr.corrupt("trailing data after %d value(s)", count)
	}
	return st, nil
}

// statReader tracks the byte offset of the parse and the total stream size
// when it is knowable, so declared counts can be validated before they
// drive any allocation or long parse.
type statReader struct {
	br   *bufio.Reader
	off  int64
	size int64 // total bytes in the stream, or -1 when unknowable
	// version is the stream's declared format version once the header has
	// been parsed; per-value decoding branches on it.
	version uint32
}

func (r *statReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.off += int64(n)
	return n, err
}

// ReadByte keeps the offset accurate for varint decoding, which consumes
// the stream byte-wise through binary.ReadUvarint.
func (r *statReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.off++
	}
	return b, err
}

// corrupt builds a typed formatError at the current offset.
func (r *statReader) corrupt(format string, args ...any) error {
	return &formatError{Offset: r.off, Msg: fmt.Sprintf(format, args...), Version: r.version, BadKind: -1}
}

// unknownKind builds the forward-compatibility rejection: a kind byte the
// registry does not know, carrying the byte and the stream version so a
// caller can tell a future-format stream from corruption.
func (r *statReader) unknownKind(kind uint8) error {
	return &formatError{
		Offset:  r.off,
		Msg:     "unregistered statistic kind",
		Version: r.version,
		BadKind: int(kind),
	}
}

// readErr converts a low-level read failure: EOF mid-structure is a
// truncation (corrupt stream), anything else is a real I/O error and
// passes through wrapped.
func (r *statReader) readErr(what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return r.corrupt("truncated %s", what)
	}
	return fmt.Errorf("stats: read %s at byte %d: %w", what, r.off, err)
}

// checkRemaining rejects a declared element count whose minimal encoding
// cannot fit in the bytes the stream still has (only when the total size
// is knowable).
func (r *statReader) checkRemaining(n, minLen int64, what string) error {
	if r.size < 0 {
		return nil
	}
	if need := n * minLen; need > r.size-r.off {
		return r.corrupt("%s count %d needs at least %d more byte(s), stream has %d",
			what, n, need, r.size-r.off)
	}
	return nil
}

// streamSize reports the total number of bytes the reader will deliver
// when that is knowable without consuming it: -1 otherwise.
func streamSize(r io.Reader) int64 {
	type lenner interface{ Len() int }
	switch v := r.(type) {
	case lenner: // bytes.Reader, bytes.Buffer, strings.Reader
		return int64(v.Len())
	case io.Seeker: // *os.File and friends
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return -1
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return -1
		}
		return end - cur
	}
	return -1
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeHeader(w io.Writer, count int) error {
	if _, err := io.WriteString(w, persistMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(persistVersion)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, uint32(count))
}

func writeValue(w io.Writer, v *Value) error {
	s := v.Stat
	if err := binary.Write(w, binary.LittleEndian, uint8(s.Kind)); err != nil {
		return err
	}
	t := s.Target
	for _, x := range []int64{int64(t.Block), int64(t.Set), int64(t.Depth), int64(t.RejectInput), int64(t.RejectEdge)} {
		if err := binary.Write(w, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s.Attrs))); err != nil {
		return err
	}
	for _, a := range s.Attrs {
		if err := writeString(w, a.Rel); err != nil {
			return err
		}
		if err := writeString(w, a.Col); err != nil {
			return err
		}
	}
	// The shape byte mirrors the kind registry: 0 scalar, 1 histogram.
	if v.Hist != nil {
		if err := binary.Write(w, binary.LittleEndian, uint8(shapeHist)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(v.Hist.Buckets())); err != nil {
			return err
		}
		var werr error
		v.Hist.eachSorted(func(vals []int64, freq int64) {
			if werr != nil {
				return
			}
			for _, x := range vals {
				if werr = binary.Write(w, binary.LittleEndian, x); werr != nil {
					return
				}
			}
			werr = binary.Write(w, binary.LittleEndian, freq)
		})
		return werr
	}
	if err := binary.Write(w, binary.LittleEndian, uint8(shapeScalar)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, v.Scalar)
}

// intFieldRange is the valid range of the target's int fields. Statistic
// keys narrow them to int16 (Key), so anything wider would silently alias
// distinct statistics; nothing the writer produces comes close.
const (
	minTargetField = -1
	maxTargetField = 1<<15 - 1
)

func readValue(r *statReader) (*Value, error) {
	var kind uint8
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return nil, r.readErr("kind", err)
	}
	if !Kind(kind).valid() {
		return nil, r.unknownKind(kind)
	}
	var block, set, depth, rejIn, rejEdge int64
	for _, f := range []struct {
		p    *int64
		name string
	}{{&block, "block"}, {&set, "set"}, {&depth, "depth"}, {&rejIn, "reject input"}, {&rejEdge, "reject edge"}} {
		if err := binary.Read(r, binary.LittleEndian, f.p); err != nil {
			return nil, r.readErr("target "+f.name, err)
		}
		if f.name != "set" && (*f.p < minTargetField || *f.p > maxTargetField) {
			return nil, r.corrupt("target %s %d out of range", f.name, *f.p)
		}
	}
	if block < 0 {
		return nil, r.corrupt("negative block %d", block)
	}
	var nAttrs uint16
	if err := binary.Read(r, binary.LittleEndian, &nAttrs); err != nil {
		return nil, r.readErr("attribute count", err)
	}
	if err := r.checkRemaining(int64(nAttrs), minAttrLen, "attribute"); err != nil {
		return nil, err
	}
	// Grow with bytes consumed, not with the declared count: a lying count
	// on a size-unknown stream fails at EOF having allocated almost
	// nothing.
	attrs := make([]workflow.Attr, 0, min(int(nAttrs), 16))
	for i := 0; i < int(nAttrs); i++ {
		rel, err := readString(r)
		if err != nil {
			return nil, err
		}
		col, err := readString(r)
		if err != nil {
			return nil, err
		}
		a := workflow.Attr{Rel: rel, Col: col}
		// The writer emits canonical (sorted, de-duplicated) attribute
		// lists; anything else is not a stream WriteTo produced.
		if i > 0 && !attrs[i-1].Less(a) {
			return nil, r.corrupt("attributes not in canonical order (%v then %v)", attrs[i-1], a)
		}
		attrs = append(attrs, a)
	}
	target := Target{
		Block:       int(block),
		Set:         expr.Set(set),
		Depth:       int(depth),
		RejectInput: int(rejIn),
		RejectEdge:  int(rejEdge),
	}
	s := Stat{Kind: Kind(kind), Target: target, Attrs: attrs}
	var flag uint8
	if err := binary.Read(r, binary.LittleEndian, &flag); err != nil {
		return nil, r.readErr("shape flag", err)
	}
	if flag > uint8(shapeHist) {
		return nil, r.corrupt("shape flag %d (at most %d)", flag, shapeHist)
	}
	if shape(flag) != s.Kind.shape() {
		return nil, r.corrupt("shape flag %d contradicts statistic kind %v", flag, s.Kind)
	}
	if shape(flag) == shapeScalar {
		var scalar int64
		if err := binary.Read(r, binary.LittleEndian, &scalar); err != nil {
			return nil, r.readErr("scalar", err)
		}
		return &Value{Stat: s, Scalar: scalar}, nil
	}
	var buckets uint32
	if err := binary.Read(r, binary.LittleEndian, &buckets); err != nil {
		return nil, r.readErr("bucket count", err)
	}
	if buckets > maxHistBuckets {
		return nil, r.corrupt("bucket count %d exceeds limit %d", buckets, maxHistBuckets)
	}
	bucketLen := int64(len(s.Attrs)+1) * 8
	if err := r.checkRemaining(int64(buckets), bucketLen, "bucket"); err != nil {
		return nil, err
	}
	// On a sized stream checkRemaining has bounded the count by the bytes
	// left, so the histogram is sized for every bucket up front. On a
	// size-unknown one the count is unchecked: the histogram grows with
	// the buckets read, so a lying count fails at EOF having allocated
	// almost nothing.
	presize := int(buckets)
	if r.size < 0 {
		presize = 0
	}
	h := newHistogramCap(s.Attrs, presize)
	vals := make([]int64, len(s.Attrs))
	prev := make([]int64, len(s.Attrs))
	for b := uint32(0); b < buckets; b++ {
		for i := range vals {
			if err := binary.Read(r, binary.LittleEndian, &vals[i]); err != nil {
				return nil, r.readErr("bucket value", err)
			}
		}
		var freq int64
		if err := binary.Read(r, binary.LittleEndian, &freq); err != nil {
			return nil, r.readErr("bucket frequency", err)
		}
		if freq == 0 {
			return nil, r.corrupt("zero-frequency bucket %v", vals)
		}
		// The writer emits buckets in strictly ascending value order;
		// out-of-order or duplicate buckets are not a WriteTo stream.
		if b > 0 && compareTuples(vals, prev) <= 0 {
			return nil, r.corrupt("buckets not in canonical order at %v", vals)
		}
		copy(prev, vals)
		if err := h.Inc(vals, freq); err != nil {
			return nil, r.corrupt("bucket %v: %v", vals, err)
		}
	}
	return &Value{Stat: s, Hist: h}, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("stats: string too long (%d bytes)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r *statReader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", r.readErr("string length", err)
	}
	if err := r.checkRemaining(int64(n), 1, "string byte"); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", r.readErr("string", err)
	}
	return string(buf), nil
}
