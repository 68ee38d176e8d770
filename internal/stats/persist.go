package stats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Statistics persistence: an ETL workflow runs on a schedule, usually in a
// fresh process each time, so the statistics observed in one run must
// survive to optimize the next (the design-once / execute-repeatedly loop
// of the paper). The stream, format version 4, is
//
//	"ETLSTAT" | version | count | count × value
//	value = kind(1) | block | set | depth | reject input | reject edge
//	      | scalar kinds: nattrs | nattrs × (attr rel, attr col) | scalar
//	      | histograms:   section+,  section = length | ETBL5 table
//
// Version, counts and lengths are uvarints, the target fields and the scalar
// zigzag varints, strings a uvarint length plus bytes. A histogram is a table
// (data.WriteTable) of relation "" whose columns are the statistic's
// attributes and then one count column, countAttr; its rows are the buckets
// in ascending compareTuples order, histSectionRows to a section. Its
// attributes are named in each table header, and its sorted rows are what
// the table codec's run and dictionary layouts compress. A section spends at
// least a byte a bucket and at most histCellsPerByte cells a byte.
//
// The stream is deterministic (canonical statistic order, sorted buckets) and
// canonical: ReadStore accepts only bytes WriteTo could have produced.

const (
	persistMagic = "ETLSTAT"
	// persistVersion is the one version WriteTo writes and ReadStore reads:
	// a version 1 or 2 store (fixed-width fields), or a version 3 one (ETBL4
	// sections), must be observed again.
	persistVersion = 4

	minValueLen = 1 + 5 + 1 + 1 // kind, five target varints, attribute count, scalar
	minAttrLen  = 2             // two empty strings
	// histCellsPerByte caps a histogram section's cells by its length, as
	// its rows are (data.ReadTableRows: buckets are distinct, so a table
	// mostly spends a byte a row or more). Observed stores hold under 2
	// cells a byte and any histogram of up to 7 attributes fits; the writer
	// refuses a denser section, or one of more buckets than bytes (a chain
	// column's image can be reused), as the reader would. A section so
	// costs its reader under 160 bytes a byte.
	histCellsPerByte = 8
	// histSectionRows is the most rows a section holds. A full one is
	// followed by the next (empty if the buckets divide evenly): a histogram
	// of any size is written, and any arity the codec carries fits its cap.
	histSectionRows = 1 << 14

	// minTargetField and maxTargetField bound the target's int fields: Key
	// narrows them to int16, so anything wider would alias statistics.
	minTargetField = -1
	maxTargetField = 1<<15 - 1
)

// countAttr names a histogram table's last column, the bucket counts.
var countAttr = workflow.Attr{}

// errCorrupt tags a stream rejected as structurally invalid (bad magic, a
// retired version, truncation, out-of-range or non-canonical encodings).
var errCorrupt = errors.New("corrupt statistics stream")

// formatError reports where and why a statistics stream was rejected. It
// wraps errCorrupt.
type formatError struct {
	Offset  int64  // byte offset at which the problem was detected
	Msg     string // what is wrong
	Version uint32 // the stream's declared version, 0 before the header is parsed
	// BadKind is the unregistered kind byte that caused the rejection, or
	// -1: it tells a stream of a future format from plain corruption.
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

// WriteTo serializes the store with a single Write. It implements
// io.WriterTo: the returned count is what w accepted.
func (st *Store) WriteTo(w io.Writer) (int64, error) {
	values := st.Values()
	buf := binary.AppendUvarint([]byte(persistMagic), persistVersion)
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	var sec bytes.Buffer
	for _, v := range values {
		s, t := v.Stat, v.Stat.Target
		buf = append(buf, byte(s.Kind))
		for _, x := range [...]int64{int64(t.Block), int64(t.Set), int64(t.Depth), int64(t.RejectInput), int64(t.RejectEdge)} {
			buf = binary.AppendVarint(buf, x)
		}
		if v.Hist == nil {
			buf = binary.AppendUvarint(buf, uint64(len(s.Attrs)))
			for _, a := range s.Attrs {
				buf = append(binary.AppendUvarint(buf, uint64(len(a.Rel))), a.Rel...)
				buf = append(binary.AppendUvarint(buf, uint64(len(a.Col))), a.Col...)
			}
			buf = binary.AppendVarint(buf, v.Scalar)
			continue
		}
		tab := histTable(s.Attrs, v.Hist)
		for lo, full := 0, true; full; lo += histSectionRows {
			part := &data.Table{Attrs: tab.Attrs, Rows: tab.Rows[lo:min(lo+histSectionRows, len(tab.Rows))]}
			sec.Reset()
			if err := data.WriteTable(&sec, part); err != nil {
				return 0, fmt.Errorf("stats: histogram %v: %w", s.Key(), err)
			}
			if cells := len(part.Rows) * len(tab.Attrs); cells > histCellsPerByte*sec.Len() {
				return 0, fmt.Errorf("stats: histogram %v: %d cells in %d bytes, over the reader's %d a byte: %w", s.Key(), cells, sec.Len(), histCellsPerByte, data.ErrWireCap)
			}
			if len(part.Rows) > sec.Len() {
				return 0, fmt.Errorf("stats: histogram %v: %d buckets in %d bytes, over the reader's one a byte: %w", s.Key(), len(part.Rows), sec.Len(), data.ErrWireCap)
			}
			buf = append(binary.AppendUvarint(buf, uint64(sec.Len())), sec.Bytes()...)
			full = len(part.Rows) == histSectionRows
		}
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// histTable lays a histogram out as the table its section carries.
func histTable(attrs []workflow.Attr, h *Histogram) *data.Table {
	t := &data.Table{Attrs: append(append(make([]workflow.Attr, 0, len(attrs)+1), attrs...), countAttr)}
	w := len(t.Attrs)
	flat := make([]int64, 0, h.Buckets()*w)
	t.Rows = make([]data.Row, 0, h.Buckets())
	h.eachSorted(func(vals []int64, freq int64) {
		flat = append(append(flat, vals...), freq)
		t.Rows = append(t.Rows, flat[len(flat)-w:len(flat):len(flat)])
	})
	return t
}

// ReadStore deserializes a store written by WriteTo, consuming r to EOF.
//
// The reader defends against corrupt or hostile streams: it holds no more
// than the bytes r delivers, every declared count and length is checked
// against the bytes left before it sizes anything, a histogram section is
// read by data.ReadTableRows under row and cell caps proportional to its
// length, and the stream must be in the exact canonical form WriteTo produces
// (sorted attributes, strictly ascending non-zero buckets, statistics in
// strictly ascending canonical order, minimal varints, no trailing bytes).
// Structural rejections are typed *formatErrors, which carry the offset.
func ReadStore(r io.Reader) (*Store, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("stats: read statistics stream: %w", err)
	}
	d := &storeDecoder{Cursor: data.Cursor{B: b}}
	if !bytes.HasPrefix(b, []byte(persistMagic)) {
		return nil, d.corrupt("stream does not start %q", persistMagic)
	}
	d.Pos = len(persistMagic)
	version, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	d.version = uint32(min(version, 1<<32-1))
	if version != persistVersion {
		return nil, d.corrupt("version %d stream, this build reads only version %d", version, persistVersion)
	}
	count, err := d.uvarint("statistic count")
	if err != nil {
		return nil, err
	}
	if left := d.left(); count > uint64(left/minValueLen) {
		return nil, d.corrupt("statistic count %d needs at least %d bytes a value, %d left", count, minValueLen, left)
	}
	st := NewStore()
	var prev Key
	for i := uint64(0); i < count; i++ {
		v, err := d.value()
		if err != nil {
			return nil, fmt.Errorf("stats: value %d: %w", i, err)
		}
		// The writer emits values in strictly ascending canonical key order:
		// this rejects duplicates, as "WriteTo could have produced this" does.
		k := v.Stat.Key()
		if i > 0 && !keyLess(prev, k) {
			return nil, d.corrupt("value %d: statistics not in canonical order (%v then %v)", i, prev, k)
		}
		prev = k
		st.m[k] = v
	}
	if d.left() > 0 {
		return nil, d.corrupt("trailing data after %d value(s)", count)
	}
	return st, nil
}

// storeDecoder is a cursor over one statistics stream, of the version its
// header declares once parsed.
type storeDecoder struct {
	data.Cursor
	version uint32
}

func (d *storeDecoder) left() int { return len(d.B) - d.Pos }

// corrupt builds a typed formatError at the current offset.
func (d *storeDecoder) corrupt(format string, args ...any) error {
	return &formatError{Offset: int64(d.Pos), Msg: fmt.Sprintf(format, args...), Version: d.version, BadKind: -1}
}

// refused is a failed cursor read of what, as a formatError.
func (d *storeDecoder) refused(what string, err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return d.corrupt("truncated %s", what)
	}
	return d.corrupt("%s: %v", what, err)
}

func (d *storeDecoder) uvarint(what string) (uint64, error) {
	u, err := d.Uvarint()
	if err != nil {
		return 0, d.refused(what, err)
	}
	return u, nil
}

func (d *storeDecoder) varint(what string) (int64, error) {
	v, err := d.Varint()
	if err != nil {
		return 0, d.refused(what, err)
	}
	return v, nil
}

func (d *storeDecoder) str(what string) (string, error) {
	s, err := d.String(math.MaxInt)
	if err != nil {
		return "", d.refused(what, err)
	}
	return s, nil
}

// value decodes one statistic and its value.
func (d *storeDecoder) value() (*Value, error) {
	if d.left() == 0 {
		return nil, d.corrupt("truncated kind")
	}
	kind := Kind(d.B[d.Pos])
	d.Pos++
	if !kind.valid() {
		// The error carries the unknown byte and the stream version, so a
		// caller can tell a future-format stream from corruption.
		return nil, &formatError{Offset: int64(d.Pos), Msg: "unregistered statistic kind", Version: d.version, BadKind: int(kind)}
	}
	var tf [5]int64 // block, set, depth, reject input, reject edge
	for i, name := range [...]string{"block", "set", "depth", "reject input", "reject edge"} {
		x, err := d.varint("target " + name)
		if err != nil {
			return nil, err
		}
		if i != 1 && (x < minTargetField || x > maxTargetField || i == 0 && x < 0) {
			return nil, d.corrupt("target %s %d out of range", name, x)
		}
		tf[i] = x
	}
	s := Stat{Kind: kind, Target: Target{
		Block: int(tf[0]), Set: expr.Set(tf[1]), Depth: int(tf[2]), RejectInput: int(tf[3]), RejectEdge: int(tf[4]),
	}}
	if kind.shape() == shapeHist {
		h, err := d.histogram()
		if err != nil {
			return nil, err
		}
		s.Attrs = h.Attrs
		return &Value{Stat: s, Hist: h}, nil
	}
	n, err := d.uvarint("attribute count")
	if err != nil {
		return nil, err
	}
	if n > uint64(d.left()/minAttrLen) {
		return nil, d.corrupt("attribute count %d needs at least %d bytes each, %d left", n, minAttrLen, d.left())
	}
	for range n {
		var a workflow.Attr
		if a.Rel, err = d.str("attribute relation"); err != nil {
			return nil, err
		}
		if a.Col, err = d.str("attribute column"); err != nil {
			return nil, err
		}
		s.Attrs = append(s.Attrs, a)
	}
	if err := d.canonicalAttrs(s.Attrs); err != nil {
		return nil, err
	}
	v := &Value{Stat: s}
	v.Scalar, err = d.varint("scalar")
	return v, err
}

// canonicalAttrs refuses an attribute list the writer could not have
// emitted: every list it writes is sorted and de-duplicated.
func (d *storeDecoder) canonicalAttrs(attrs []workflow.Attr) error {
	for i := 1; i < len(attrs); i++ {
		if !attrs[i-1].Less(attrs[i]) {
			return d.corrupt("attributes not in canonical order (%v then %v)", attrs[i-1], attrs[i])
		}
	}
	return nil
}

// histogram decodes one histogram, section by section while they are full.
func (d *storeDecoder) histogram() (*Histogram, error) {
	var h *Histogram
	var last []int64 // the bucket before, across sections
	for {
		n, err := d.uvarint("histogram section length")
		if err != nil {
			return nil, err
		}
		if n > uint64(d.left()) {
			return nil, d.corrupt("truncated histogram section: %d bytes declared, %d left", n, d.left())
		}
		t, err := data.ReadTableRows(bytes.NewReader(d.B[d.Pos:d.Pos+int(n)]), min(int64(n), histSectionRows), histCellsPerByte*int64(n))
		if err != nil {
			return nil, d.corrupt("histogram table: %v", err)
		}
		if t == nil || t.Rel != "" || len(t.Attrs) == 0 || t.Attrs[len(t.Attrs)-1] != countAttr {
			return nil, d.corrupt("histogram section is not a table of relation \"\" ending in the count column")
		}
		d.Pos += int(n)
		arity := len(t.Attrs) - 1
		attrs := t.Attrs[:arity:arity]
		if h == nil {
			if err := d.canonicalAttrs(attrs); err != nil {
				return nil, err
			}
			h = &Histogram{Attrs: attrs} // grown as buckets pass, not by a declared count
		} else if !slices.Equal(attrs, h.Attrs) {
			return nil, d.corrupt("histogram section over %v continues one over %v", attrs, h.Attrs)
		}
		for _, row := range t.Rows {
			vals := row[:arity]
			if row[arity] == 0 {
				return nil, d.corrupt("zero-count bucket %v", vals)
			}
			// Buckets are written in strictly ascending value order;
			// out-of-order or duplicate buckets are not a WriteTo stream.
			if last != nil && compareTuples(vals, last) <= 0 {
				return nil, d.corrupt("buckets not in canonical order at %v", vals)
			}
			last = vals
			h.add(vals, row[arity])
		}
		if len(t.Rows) < histSectionRows {
			return h, nil
		}
	}
}
