package stats

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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
	// two-shape scalar/histogram union; version 2 added the sketch shapes
	// (HLL register files, count-min counter matrices). ReadStore accepts
	// both.
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

// readUvarint decodes one canonical (minimal-length) unsigned varint. The
// format stays "WriteTo could have produced this": an over-long encoding
// of a small value is rejected, so every accepted stream re-serializes to
// identical bytes.
func (r *statReader) readUvarint(what string) (uint64, error) {
	start := r.off
	v, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, r.corrupt("truncated %s", what)
		}
		return 0, r.corrupt("invalid %s varint: %v", what, err)
	}
	if n := r.off - start; n > 1 && v < 1<<(7*uint(n-1)) {
		return 0, r.corrupt("non-minimal varint for %s", what)
	}
	return v, nil
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
	// The shape byte mirrors the kind registry: 0 scalar, 1 histogram,
	// 2 HLL register file, 3 count-min matrix (2 and 3 are version-2
	// encodings).
	switch {
	case v.Hist != nil:
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
	case v.HLL != nil:
		if err := binary.Write(w, binary.LittleEndian, uint8(shapeHLL)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, v.HLL.P); err != nil {
			return err
		}
		return writeHLLRegs(w, v.HLL)
	case v.CM != nil:
		if err := binary.Write(w, binary.LittleEndian, uint8(shapeCM)); err != nil {
			return err
		}
		cm := v.CM
		for _, x := range []int64{cm.Spec.Lo, cm.Spec.Hi} {
			if err := binary.Write(w, binary.LittleEndian, x); err != nil {
				return err
			}
		}
		for _, x := range []uint32{uint32(cm.Spec.N), uint32(cm.Depth), uint32(cm.Width)} {
			if err := binary.Write(w, binary.LittleEndian, x); err != nil {
				return err
			}
		}
		for _, c := range cm.Counters {
			if err := writeUvarint(w, uint64(c)); err != nil {
				return err
			}
		}
		return nil
	default:
		if err := binary.Write(w, binary.LittleEndian, uint8(shapeScalar)); err != nil {
			return err
		}
		return binary.Write(w, binary.LittleEndian, v.Scalar)
	}
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
	if r.version < 2 && Kind(kind) > Hist {
		// Sketch kinds did not exist in version 1; a v1 stream carrying one
		// is not a stream any writer produced.
		return nil, r.corrupt("statistic kind %v requires format version 2, stream is version %d", Kind(kind), r.version)
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
	maxShape := uint8(shapeHist)
	if r.version >= 2 {
		maxShape = uint8(shapeCM)
	}
	if flag > maxShape {
		return nil, r.corrupt("shape flag %d (version %d allows at most %d)", flag, r.version, maxShape)
	}
	if shape(flag) != s.Kind.shape() {
		return nil, r.corrupt("shape flag %d contradicts statistic kind %v", flag, s.Kind)
	}
	switch shape(flag) {
	case shapeScalar:
		var scalar int64
		if err := binary.Read(r, binary.LittleEndian, &scalar); err != nil {
			return nil, r.readErr("scalar", err)
		}
		return &Value{Stat: s, Scalar: scalar}, nil
	case shapeHLL:
		return r.readHLLValue(s)
	case shapeCM:
		return r.readCMValue(s)
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

// hllSparse decides the register-file encoding: a register file whose
// occupancy is below a quarter writes smaller as (index, rank) pairs —
// each pair costs at most 4 bytes (a ≤3-byte index varint plus the rank) —
// while a fuller one writes smaller dense. The rule depends only on the
// nonzero-register count, so the reader can re-check it and keep the
// stream canonical.
func hllSparse(nonzero, regs int) bool { return 4*nonzero < regs }

// writeHLLRegs encodes an HLL register file: a mode byte (0 dense, 1
// sparse), then either all 2^p rank bytes or a varint pair count followed
// by ascending (varint index, rank byte) pairs for the nonzero registers.
func writeHLLRegs(w io.Writer, h *HLL) error {
	nonzero := 0
	for _, reg := range h.Regs {
		if reg != 0 {
			nonzero++
		}
	}
	if !hllSparse(nonzero, len(h.Regs)) {
		if err := binary.Write(w, binary.LittleEndian, uint8(0)); err != nil {
			return err
		}
		_, err := w.Write(h.Regs)
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint8(1)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(nonzero)); err != nil {
		return err
	}
	for i, reg := range h.Regs {
		if reg == 0 {
			continue
		}
		if err := writeUvarint(w, uint64(i)); err != nil {
			return err
		}
		if _, err := w.Write([]byte{reg}); err != nil {
			return err
		}
	}
	return nil
}

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	_, err := w.Write(buf[:binary.PutUvarint(buf[:], v)])
	return err
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

// readHLLValue decodes an HLL register file: precision byte, then 2^p
// registers (each a rank in [0, 65-p]).
func (r *statReader) readHLLValue(s Stat) (*Value, error) {
	var p uint8
	if err := binary.Read(r, binary.LittleEndian, &p); err != nil {
		return nil, r.readErr("hll precision", err)
	}
	if p < hllPMin || p > hllPMax {
		return nil, r.corrupt("hll precision %d out of range [%d, %d]", p, hllPMin, hllPMax)
	}
	n := int64(1) << p
	var mode uint8
	if err := binary.Read(r, binary.LittleEndian, &mode); err != nil {
		return nil, r.readErr("hll register mode", err)
	}
	maxRank := byte(65 - p)
	switch mode {
	case 0: // dense: 2^p raw rank bytes
		if err := r.checkRemaining(n, 1, "hll register"); err != nil {
			return nil, err
		}
		regs := make([]byte, n)
		if _, err := io.ReadFull(r, regs); err != nil {
			return nil, r.readErr("hll registers", err)
		}
		nonzero := 0
		for i, reg := range regs {
			if reg > maxRank {
				return nil, r.corrupt("hll register %d holds impossible rank %d", i, reg)
			}
			if reg != 0 {
				nonzero++
			}
		}
		if hllSparse(nonzero, len(regs)) {
			return nil, r.corrupt("dense hll encoding of %d/%d registers (writer emits sparse)", nonzero, len(regs))
		}
		return &Value{Stat: s, HLL: &HLL{P: p, Regs: regs}}, nil
	case 1: // sparse: pair count, ascending (index, rank) pairs
		pairs, err := r.readUvarint("hll pair count")
		if err != nil {
			return nil, err
		}
		if !hllSparse(int(pairs), int(n)) || int64(pairs) > n {
			return nil, r.corrupt("sparse hll encoding of %d/%d registers (writer emits dense)", pairs, n)
		}
		if err := r.checkRemaining(int64(pairs), 2, "hll register pair"); err != nil {
			return nil, err
		}
		regs := make([]byte, n)
		prev := int64(-1)
		for i := uint64(0); i < pairs; i++ {
			idx, err := r.readUvarint("hll register index")
			if err != nil {
				return nil, err
			}
			if int64(idx) >= n {
				return nil, r.corrupt("hll register index %d out of range", idx)
			}
			if int64(idx) <= prev {
				return nil, r.corrupt("hll register indexes not ascending at %d", idx)
			}
			prev = int64(idx)
			var rank [1]byte
			if _, err := io.ReadFull(r, rank[:]); err != nil {
				return nil, r.readErr("hll register rank", err)
			}
			if rank[0] == 0 || rank[0] > maxRank {
				return nil, r.corrupt("hll register %d holds impossible rank %d", idx, rank[0])
			}
			regs[idx] = rank[0]
		}
		return &Value{Stat: s, HLL: &HLL{P: p, Regs: regs}}, nil
	default:
		return nil, r.corrupt("hll register mode %d", mode)
	}
}

// maxCMDim bounds the declared count-min dimensions; nothing the writer
// produces comes close, and depth*width*8 drives the allocation.
const maxCMDim = 1 << 12

// readCMValue decodes a count-min matrix: bucket spec (lo, hi, n), depth,
// width, then depth*width counters.
func (r *statReader) readCMValue(s Stat) (*Value, error) {
	var lo, hi int64
	if err := binary.Read(r, binary.LittleEndian, &lo); err != nil {
		return nil, r.readErr("cm bucket lo", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &hi); err != nil {
		return nil, r.readErr("cm bucket hi", err)
	}
	var n, depth, width uint32
	for _, f := range []struct {
		p    *uint32
		name string
	}{{&n, "cm bucket count"}, {&depth, "cm depth"}, {&width, "cm width"}} {
		if err := binary.Read(r, binary.LittleEndian, f.p); err != nil {
			return nil, r.readErr(f.name, err)
		}
	}
	spec := BucketSpec{Lo: lo, Hi: hi, N: int(n)}
	// Acceptance stays "WriteTo could have produced this": the spec must be
	// in the canonical form NewBucketSpec returns.
	if n == 0 || n > maxCMDim || spec != NewBucketSpec(lo, hi, int(n)) {
		return nil, r.corrupt("non-canonical cm bucket spec [%d, %d]/%d", lo, hi, n)
	}
	if depth == 0 || depth > maxCMDim || width == 0 || width > maxCMDim {
		return nil, r.corrupt("cm dimensions %dx%d out of range", depth, width)
	}
	cells := int64(depth) * int64(width)
	if err := r.checkRemaining(cells, 1, "cm counter"); err != nil {
		return nil, err
	}
	counters := make([]int64, cells)
	for i := range counters {
		c, err := r.readUvarint("cm counter")
		if err != nil {
			return nil, err
		}
		if c > math.MaxInt64 {
			return nil, r.corrupt("cm counter %d overflows at cell %d", c, i)
		}
		counters[i] = int64(c)
	}
	return &Value{Stat: s, CM: &CMH{Spec: spec, Depth: int(depth), Width: int(width), Counters: counters}}, nil
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
