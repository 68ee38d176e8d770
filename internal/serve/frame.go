package serve

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"sort"
	"sync"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Block-dispatch frames. Both bodies of a /v1/worker/run exchange are one
// binary frame:
//
//	"EBLK2" | mode(1) | uvarint payload length | payload
//	payload = uvarint header length | header JSON | sections
//
// Mode 0 stores the payload as it is, mode 1 is one raw DEFLATE stream of it;
// the writer sends the shorter (ties stored). The length is the payload's
// before compression in both modes: a reader refuses a frame that declares
// more than its cap before it inflates a byte, and one that inflates past
// what it declared at the byte where it does, so a kilobyte of deflated zeros
// costs it no more than an honest frame. Bytes in the body after the payload
// make a frame malformed in either mode. The payload is a block's byte form;
// its DEFLATE form is the same on every worker of one build but not across
// compress/flate versions: nothing compares frames from different builds.
//
// The header is the exchange's scalar fields (workerRunRequest or
// workerRunResponse). A request is its header and nothing else. A
// response's bulk follows its header as raw sections, each a uvarint length
// and that many bytes, in an order the header fixes: the boundary output
// (none when the header says it is held), one table per Materialized entry
// (sorted by name), then the statistics shard (length 0 when the block was
// not instrumented). So a table crosses the wire as its codec bytes and
// nothing else: no base64, no JSON scanning, and the reader hands each
// section to the codec or stats.ReadStore straight from the inflating
// stream. The tables are data.WriteLate's: every source relation a column
// reads is named, with a row index into it — read directly, or through a
// held upstream output's index — and its columns are gathered from the
// coordinator's copy (the engine's data, DispatchSpec.DB), so only index
// columns and the cells no source holds cross. DEFLATE takes what the codec
// cannot see, repetition across columns and rows: 44 % (wf15) to 95 %
// (wf08) of the payload bytes of the dist-run benchmark's runs
// (TestDistributedWireBytes logs both).
//
// A block output a later block reads and no sink does never crosses the
// wire: the request that makes it says Hold, and the worker keeps the output,
// in its late form, under the request's key — the SHA-256 of the request's payload, which both
// ends compute over the bytes they write or read, so it is never sent — and
// answers Held, with no output section. The request that reads it names it
// in Resident by that key: every upstream output a worker reads is one it
// holds. Equal payloads make equal outputs, so the key names the output by
// its lineage.

const (
	frameMagic            = "EBLK2"
	frameContentType      = "application/x-etlopt-block"
	frameStored      byte = 0
	frameDeflate     byte = 1
	// Level 3, over ETBL5 tables: 1-2 % under level 2's frames on every
	// benchmark workload at no more time, where level 6 takes 3-5 % more
	// off at up to 1.6 × the compression time, which a dist cycle feels.
	frameLevel = 3
)

// errFrameCap marks a frame whose payload is over its handler's cap — one
// that declares more, or inflates past what it declared: like
// data.ErrWireCap a property of the block, which then runs in-process.
var errFrameCap = errors.New("frame over the cap")

// digest is the SHA-256 of a request frame's payload: the key the block
// output it made is kept under.
type digest [sha256.Size]byte

func (d digest) String() string { return hex.EncodeToString(d[:]) }

// parseDigest accepts exactly what digest.String writes: 64 lowercase hex
// digits.
func parseDigest(s string) (digest, error) {
	var d digest
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(d) || hex.EncodeToString(b) != s {
		return d, fmt.Errorf("digest %q is not %d lowercase hex digits", s, 2*len(d))
	}
	copy(d[:], b)
	return d, nil
}

// frameWriter builds one frame's payload and seals it.
type frameWriter struct {
	payload []byte
	section bytes.Buffer // the table or shard being encoded
	packed  bytes.Buffer
	fw      *flate.Writer
}

// Readers are pooled; writers sit on a free list, because a flate.Writer is
// 0.8 MB and a pool the collector empties had busy runs build one per round.
var (
	frameWriters = make(chan *frameWriter, 4)
	frameReaders = sync.Pool{New: func() any { return &frameReader{br: bufio.NewReader(nil)} }}
)

// beginFrame starts a frame with its header.
func beginFrame(header any) (*frameWriter, error) {
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	var f *frameWriter
	select {
	case f = <-frameWriters:
	default:
		f = new(frameWriter)
		f.fw, _ = flate.NewWriter(&f.packed, frameLevel) // the level is valid
	}
	f.payload = f.payload[:0]
	f.add(hdr)
	return f, nil
}

// add appends one length-prefixed section.
func (f *frameWriter) add(section []byte) {
	f.payload = append(binary.AppendUvarint(f.payload, uint64(len(section))), section...)
}

// late appends a late table section.
func (f *frameWriter) late(t *data.Late) error {
	f.section.Reset()
	if err := data.WriteLate(&f.section, t); err != nil {
		return err
	}
	f.add(f.section.Bytes())
	return nil
}

// seal returns the finished frame and the writer to the free list.
func (f *frameWriter) seal(maxPayload int64) ([]byte, error) {
	if int64(len(f.payload)) > maxPayload {
		return nil, fmt.Errorf("%d bytes, cap %d: %w", len(f.payload), maxPayload, errFrameCap)
	}
	f.packed.Reset()
	f.fw.Reset(&f.packed)
	f.fw.Write(f.payload) // into a bytes.Buffer: cannot fail
	f.fw.Close()
	mode, body := frameStored, f.payload
	if f.packed.Len() < len(body) {
		mode, body = frameDeflate, f.packed.Bytes()
	}
	frame := make([]byte, 0, len(frameMagic)+1+binary.MaxVarintLen64+len(body))
	frame = append(append(frame, frameMagic...), mode)
	frame = append(binary.AppendUvarint(frame, uint64(len(f.payload))), body...)
	if len(f.payload) <= 1<<22 { // a writer that grew past that is dropped
		select {
		case frameWriters <- f:
		default:
		}
	}
	return frame, nil
}

// frameReader decodes one frame section by section.
type frameReader struct {
	br      *bufio.Reader
	stored  io.LimitedReader // a stored body, up to the length it declared
	inflate io.ReadCloser    // a flate reader, once a deflated frame has come by
	payload payloadReader
}

// payloadReader reads the n bytes of payload a frame declared from src, the
// stored body or the inflater over it. Asked for more, it looks at what src
// has next: its end is the frame's, anything else an inflater yielding more
// than the frame said. A non-nil sum is fed every payload byte read.
type payloadReader struct {
	src io.Reader
	n   int64
	max int64 // the cap the frame was opened under
	sum hash.Hash
}

func (p *payloadReader) Read(b []byte) (int, error) {
	if p.n == 0 {
		var next [1]byte
		if _, err := io.ReadFull(p.src, next[:]); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("frame inflates past the length it declared: %w", errFrameCap)
	}
	n, err := p.src.Read(b[:min(int64(len(b)), p.n)])
	p.n -= int64(n)
	if p.sum != nil {
		p.sum.Write(b[:n])
	}
	if err == io.EOF {
		// The source's end is the payload's only after its last byte.
		err = nil
		if p.n > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	return n, err
}

func (p *payloadReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(p, b[:])
	return b[0], err
}

// openFrame checks the magic and the declared size and decodes the header
// into header; the caller closes the reader. Unknown header fields are an
// error: coordinator and workers ship as one binary, so a field one side
// does not know is a bug, not a version skew. A non-nil sum is fed the
// payload as it is read.
func openFrame(r io.Reader, header any, maxPayload int64, sum hash.Hash) (*frameReader, error) {
	f := frameReaders.Get().(*frameReader)
	f.br.Reset(r)
	if err := f.open(header, maxPayload, sum); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *frameReader) open(header any, maxPayload int64, sum hash.Hash) error {
	var prefix [len(frameMagic) + 1]byte
	if _, err := io.ReadFull(f.br, prefix[:]); err != nil {
		return fmt.Errorf("frame magic: %w", err)
	}
	magic, mode := string(prefix[:len(frameMagic)]), prefix[len(frameMagic)]
	if magic != frameMagic {
		return fmt.Errorf("frame starts %q, this build reads only version %q", magic, frameMagic)
	}
	n, err := binary.ReadUvarint(f.br)
	if err != nil {
		return fmt.Errorf("frame length: %w", err)
	}
	if n > uint64(maxPayload) {
		return fmt.Errorf("frame of %d bytes, cap %d: %w", n, maxPayload, errFrameCap)
	}
	f.payload = payloadReader{n: int64(n), max: maxPayload, sum: sum}
	switch mode {
	case frameStored:
		f.stored = io.LimitedReader{R: f.br, N: int64(n)}
		f.payload.src = &f.stored
	case frameDeflate:
		if f.inflate == nil {
			f.inflate = flate.NewReader(f.br)
		} else if err := f.inflate.(flate.Resetter).Reset(f.br, nil); err != nil {
			return err
		}
		f.payload.src = f.inflate
	default:
		return fmt.Errorf("unknown frame mode %d", mode)
	}
	sec, err := f.section()
	if err != nil {
		return fmt.Errorf("frame header: %w", err)
	}
	// The header grows with the bytes that arrive, not with its declared
	// length.
	hdr, err := io.ReadAll(sec)
	if err != nil {
		return fmt.Errorf("frame header: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(hdr))
	dec.DisallowUnknownFields()
	if err := dec.Decode(header); err != nil {
		return fmt.Errorf("frame header: %w", err)
	}
	if dec.More() {
		return errors.New("frame header: trailing data")
	}
	return nil
}

// close gives the reader back to its pool, holding on to no part of the body.
func (f *frameReader) close() {
	f.br.Reset(nil)
	f.payload = payloadReader{}
	frameReaders.Put(f)
}

// section opens the next section; the caller reads it to its end.
func (f *frameReader) section() (*io.LimitedReader, error) {
	n, err := binary.ReadUvarint(&f.payload)
	if err != nil {
		return nil, err
	}
	if n > uint64(f.payload.n) {
		return nil, fmt.Errorf("section of %d bytes, %d left in the frame", n, f.payload.n)
	}
	return &io.LimitedReader{R: &f.payload, N: int64(n)}, nil
}

// lateTable decodes the next section as a late table, gathering the rows it
// names from db, of no more cells than the frame may have bytes: what bounds
// the body bounds what is built from it.
func (f *frameReader) lateTable(db engine.DB) (*data.Table, error) {
	sec, err := f.section()
	if err != nil {
		return nil, err
	}
	return data.ReadLate(sec, f.payload.max, db)
}

// end requires the last section to end the payload, and the payload the
// body: a byte after it is malformed in either mode, never over the cap.
func (f *frameReader) end() error {
	if f.payload.n > 0 {
		return errors.New("trailing bytes after the last section")
	}
	if _, err := f.payload.Read(nil); err != io.EOF {
		return err
	}
	if _, err := f.br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing bytes after the payload")
		}
		return err
	}
	return nil
}

// encodeRunRequest builds the request frame for one block, and its key. It
// carries the statistics of the run's that the block observes — the
// compiler places a tap only in its target's block — and every block's join
// tree, since upstream schemas compile from them. resident names every
// upstream block's output, by ascending block; hold asks the worker to keep
// the block's output instead of sending it.
func encodeRunRequest(base *workerRunRequest, block int, hold bool, resident []residentRef, maxPayload int64) ([]byte, digest, error) {
	req := *base
	req.Block, req.Hold, req.Resident = block, hold, resident
	req.Observe = nil
	for _, st := range base.Observe {
		if st.Target.Block == block {
			req.Observe = append(req.Observe, st)
		}
	}
	var key digest
	f, err := beginFrame(&req)
	if err != nil {
		return nil, key, err
	}
	key = sha256.Sum256(f.payload)
	frame, err := f.seal(maxPayload)
	return frame, key, err
}

// decodeRunRequest reads a request frame and its key; the outputs it names
// are the caller's to find. A malformed key, a block named twice, or a
// section after the header is an error here.
func decodeRunRequest(r io.Reader, maxPayload int64) (*workerRunRequest, error) {
	req := &workerRunRequest{}
	sum := sha256.New()
	f, err := openFrame(r, req, maxPayload, sum)
	if err != nil {
		return nil, err
	}
	defer f.close()
	named := make(map[int]bool, len(req.Resident))
	for _, ref := range req.Resident {
		if _, err := parseDigest(ref.SHA256); err != nil {
			return nil, fmt.Errorf("resident block %d: %w", ref.Block, err)
		}
		if named[ref.Block] {
			return nil, fmt.Errorf("resident block %d named twice", ref.Block)
		}
		named[ref.Block] = true
	}
	if err := f.end(); err != nil {
		return nil, err
	}
	sum.Sum(req.key[:0])
	return req, nil
}

// encodeRunResponse builds the response frame for one executed block from
// the late tables RunBlockCtx returns; a block without a late output is a
// held one.
func encodeRunResponse(rb *engine.RemoteBlock, maxPayload int64) ([]byte, error) {
	resp := workerRunResponse{Held: rb.LateOut == nil, Sources: rb.Sources, Rows: rb.Rows, Retries: rb.Retries, Metrics: rb.Metrics}
	for name := range rb.LateMaterialized {
		resp.Materialized = append(resp.Materialized, name)
	}
	sort.Strings(resp.Materialized)
	for _, fs := range rb.Degraded {
		resp.Degraded = append(resp.Degraded, wireFailedStat{Stat: fs.Stat, Err: fs.Err.Error()})
	}
	f, err := beginFrame(&resp)
	if err != nil {
		return nil, err
	}
	if !resp.Held {
		if err := f.late(rb.LateOut); err != nil {
			return nil, fmt.Errorf("block output: %w", err)
		}
	}
	for _, name := range resp.Materialized {
		if err := f.late(rb.LateMaterialized[name]); err != nil {
			return nil, fmt.Errorf("materialized %q: %w", name, err)
		}
	}
	f.section.Reset()
	if rb.Observed != nil {
		if _, err := rb.Observed.WriteTo(&f.section); err != nil {
			return nil, fmt.Errorf("stats shard: %w", err)
		}
	}
	f.add(f.section.Bytes())
	return f.seal(maxPayload)
}

// checkSources requires db to hold every source relation a worker says its
// block read, at the row count it read: its rows are what the worker
// computed from, and what a late table's names resolve to.
func checkSources(sources map[string]int, db engine.DB) error {
	rels := make([]string, 0, len(sources))
	for rel := range sources {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		switch t := db[rel]; {
		case t == nil:
			return fmt.Errorf("%w: the block read relation %q, which is not in the run's data", data.ErrUnresolved, rel)
		case len(t.Rows) != sources[rel]:
			return fmt.Errorf("%w: the block read relation %q at %d rows, the run's data has %d", data.ErrUnresolved, rel, sources[rel], len(t.Rows))
		}
	}
	return nil
}

// decodeRunResponse reads a worker's 200 body into the engine's form, its
// tables gathered into rows from db; a block whose output the worker held
// has none, and says Held.
func decodeRunResponse(r io.Reader, maxPayload int64, db engine.DB) (*engine.RemoteBlock, error) {
	var resp workerRunResponse
	f, err := openFrame(r, &resp, maxPayload, nil)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := checkSources(resp.Sources, db); err != nil {
		return nil, err
	}
	rb := &engine.RemoteBlock{Held: resp.Held, Rows: resp.Rows, Retries: resp.Retries, Metrics: resp.Metrics}
	if !resp.Held {
		if rb.Out, err = f.lateTable(db); err != nil {
			return nil, fmt.Errorf("block output: %w", err)
		}
	}
	if len(resp.Materialized) > 0 {
		rb.Materialized = make(map[string]*data.Table, len(resp.Materialized))
	}
	for _, name := range resp.Materialized {
		if rb.Materialized[name], err = f.lateTable(db); err != nil {
			return nil, fmt.Errorf("materialized %q: %w", name, err)
		}
	}
	shard, err := f.section()
	if err != nil {
		return nil, fmt.Errorf("stats shard: %w", err)
	}
	if shard.N > 0 {
		if rb.Observed, err = stats.ReadStore(shard); err != nil {
			return nil, fmt.Errorf("stats shard: %w", err)
		}
	}
	for _, wf := range resp.Degraded {
		rb.Degraded = append(rb.Degraded, engine.FailedStat{Stat: wf.Stat, Err: errors.New(wf.Err)})
	}
	return rb, f.end()
}
