package serve

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Block-dispatch frames. Both bodies of a /v1/worker/run exchange are one
// binary frame:
//
//	"EBLK5" | mode(1) | uvarint payload length | payload
//	payload = uvarint header length | header JSON | sections
//
// Mode 0 stores the payload as it is, mode 1 is one raw DEFLATE stream of it
// at frameLevel over the preset dictionary frameDict, which both ends build
// the same way; the writer sends the shorter (ties stored). EBLK2, the same
// layout deflated with no dictionary, EBLK3, whose late sections had no
// expanded form, and EBLK4, whose expanded sections sent every level's
// surviving rows as a gap list and whose dictionary held that form's head,
// are refused by their magic (errFrameVersion). The length
// is the payload's before compression in both modes: a reader refuses a
// frame that declares more than its cap before it inflates a byte, and one
// that inflates past what it declared at the byte where it does, so a
// kilobyte of deflated zeros costs it no more than an honest frame. Bytes in
// the body after the payload make a frame malformed in either mode. The
// payload is a chain's byte form; its DEFLATE form is the same on every
// worker of one build but not across compress/flate versions: nothing
// compares frames from different builds.
//
// An exchange runs a chain (engine.Chains): a block and the blocks after
// it, each reading only the output of the one before it, which the worker
// runs through engine.RunChainCtx on one compiled plan. A request is its header and nothing
// else (workerRunRequest): the chain's blocks, and the run's statistics
// that they observe. A response's header is a list of entries, one per
// block in chain order (workerRunResponse), and its bulk follows as raw
// sections, each a uvarint length and that many bytes, in an order the
// header fixes: for each block in turn, its boundary output — the last
// block's only, since each other's was read by the next block and never
// left the worker — one table per Materialized entry (sorted by name), then
// the statistics shard (length 0 when the block was not instrumented). A
// block that failed is the last entry, with its error and no sections. So a
// table crosses the wire as its codec bytes and nothing else: no base64, no
// JSON scanning, and the reader hands each section to the codec or
// stats.ReadStore straight from the inflating stream. The tables are
// data.WriteLate's: every source relation a column reads is named, with a
// row index into it — read directly, or through the chain's upstream
// output's index — and the reader resolves it in the coordinator's copy
// (the engine's data, DispatchSpec.DB), so only index columns and the cells
// no source holds cross; a join's output, whose row indexes are the nested
// loop its hash joins ran, sends each input's surviving rows and the
// columns that key it instead of its indexes, each input's as a bitmap of
// its relation where that is smaller. The engine's scheduler builds
// the rows of what it reads. DEFLATE takes what the codec cannot see,
// repetition across columns and rows, and the dictionary what every frame
// repeats, the headers' JSON above all (TestDistributedWireBytes logs each
// run's share).

const (
	frameMagic            = "EBLK5"
	frameContentType      = "application/x-etlopt-block"
	frameStored      byte = 0
	frameDeflate     byte = 1
	// Level 6: with the dictionary, one round of the dist-run benchmark's
	// frames (max_rows 4,000,000), when every join output sent its row
	// indexes, was 18,543 B against 19,746 B at level 3 (22,138 B at level
	// 3 without it), and DEFLATE took 5.6 ms of the round against 3.4 ms on
	// a 2-CPU x86-64 host, less than the late writer no longer spent; level
	// 9 took 11.1 ms for 18,343 B.
	frameLevel = 6
)

// frameDict is the preset dictionary every frame's DEFLATE stream starts
// from, built the same way at both ends: the JSON of a typical request and
// response header — field names, stat targets, the shapes their values
// take — and the start of each section kind, which a stream would otherwise
// spell out again in every frame. A request, a few hundred bytes of header,
// is mostly matches into it.
var frameDict = func() []byte {
	target := stats.BlockSE(1, 2)
	attrs := []workflow.Attr{{Rel: "R1", Col: "n1"}, {Rel: "R2", Col: "n2"}}
	req, err := json.Marshal(&workerRunRequest{
		WF: 8, Scale: 0.05, MaxRows: 4000000, Faults: "seed=1,rate=0.1",
		CSS: css.DefaultOptions(), Instrument: true, Metrics: true,
		Observe: []stats.Stat{stats.NewCard(target), stats.NewDistinct(target, attrs[0]), stats.NewHist(target, attrs...),
			stats.NewCard(stats.BlockSE(1, 3))},
		Plans: map[int]*workflow.JoinTree{1: {Leaf: -1, Join: 0, Left: &workflow.JoinTree{Leaf: 0, Join: -1}, Right: &workflow.JoinTree{Leaf: 1, Join: -1}}},
		Block: 0, Then: []int{1},
	})
	if err != nil {
		panic(err)
	}
	resp, err := json.Marshal([]workerRunResponse{{Sources: map[string]int{"R3": 1000}, Rows: 2000}, {
		Materialized: []string{"n5.reject"}, Sources: map[string]int{"R1": 334, "R2": 221},
		Rows: 25942, Retries: 1, Metrics: []physical.Metrics{{RowsOut: 6247, Calls: 1, WallNanos: 1, TapNanos: 1}},
		Degraded: []wireFailedStat{{Stat: stats.NewCard(target), Err: "tap failed"}},
	}})
	if err != nil {
		panic(err)
	}
	// A late section's head, in the expanded form a join output takes: one
	// row of R1.
	var table, store bytes.Buffer
	r1 := &data.Table{Rel: "R1", Attrs: attrs[:1], Rows: []data.Row{{1}}}
	data.WriteLate(&table, &data.Late{Rel: "R1⋈R2", Attrs: attrs[:1], N: 1,
		Ins: []data.LateInput{{Src: r1, Idx: []int32{0}}}, Cols: []data.LateCol{{In: 0, Col: 0}}, Levels: []data.LateLevel{{In: 0}}})
	stats.NewStore().WriteTo(&store) // a statistics shard's
	return slices.Concat(req, resp, table.Bytes(), store.Bytes())
}()

// errFrameCap marks a frame whose payload is over its handler's cap — one
// that declares more, or inflates past what it declared: like
// data.ErrWireCap a property of the block, which then runs in-process.
var errFrameCap = errors.New("frame over the cap")

// errFrameHeader marks a frame whose header is not one this build writes:
// not JSON, a field of the wrong type, a field it does not know — the
// resident and hold fields of the protocol chains replaced among them.
var errFrameHeader = errors.New("frame header")

// errFrameVersion marks a frame of another format version, EBLK2's
// dictionary-less DEFLATE among them: a peer of another build, refused by
// its magic before a byte of it is inflated.
var errFrameVersion = errors.New("frame of another version")

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
		f.fw, _ = flate.NewWriterDict(&f.packed, frameLevel, frameDict) // the level is valid
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
// than the frame said.
type payloadReader struct {
	src io.Reader
	n   int64
	max int64 // the cap the frame was opened under
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
	switch {
	case err == io.EOF && p.n == 0:
		err = nil
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		// The source's end is the payload's only after its last byte, and a
		// DEFLATE stream's end only after its last block.
		err = errBodyShort
	}
	return n, err
}

// errBodyShort reports a body that ends before the frame it starts: cut in
// transit, so the same request may yet be answered whole.
var errBodyShort = fmt.Errorf("the body ends before its frame: %w", io.ErrUnexpectedEOF)

func (p *payloadReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(p, b[:])
	return b[0], err
}

// openFrame checks the magic and the declared size and decodes the header
// into header; the caller closes the reader. Unknown header fields are an
// error: coordinator and workers ship as one binary, so a field one side
// does not know is a bug, not a version skew.
func openFrame(r io.Reader, header any, maxPayload int64) (*frameReader, error) {
	f := frameReaders.Get().(*frameReader)
	f.br.Reset(r)
	if err := f.open(header, maxPayload); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *frameReader) open(header any, maxPayload int64) error {
	var prefix [len(frameMagic) + 1]byte
	if _, err := io.ReadFull(f.br, prefix[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errBodyShort
		}
		return fmt.Errorf("frame magic: %w", err)
	}
	magic, mode := string(prefix[:len(frameMagic)]), prefix[len(frameMagic)]
	if magic != frameMagic {
		return fmt.Errorf("frame starts %q, this build reads only version %q: %w", magic, frameMagic, errFrameVersion)
	}
	n, err := binary.ReadUvarint(f.br)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = errBodyShort
	}
	if err != nil {
		return fmt.Errorf("frame length: %w", err)
	}
	if n > uint64(maxPayload) {
		return fmt.Errorf("frame of %d bytes, cap %d: %w", n, maxPayload, errFrameCap)
	}
	f.payload = payloadReader{n: int64(n), max: maxPayload}
	switch mode {
	case frameStored:
		f.stored = io.LimitedReader{R: f.br, N: int64(n)}
		f.payload.src = &f.stored
	case frameDeflate:
		if f.inflate == nil {
			f.inflate = flate.NewReaderDict(f.br, frameDict)
		} else if err := f.inflate.(flate.Resetter).Reset(f.br, frameDict); err != nil {
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
		return fmt.Errorf("%w: %w", errFrameHeader, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data", errFrameHeader)
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

// lateTable decodes the next section as a late table over db, of no more
// cells than the frame may have bytes: what bounds the body bounds what is
// built from it, the table and its rows.
func (f *frameReader) lateTable(db engine.DB) (*data.Late, error) {
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

// encodeRunRequest builds the request frame for a chain: its blocks, in
// order, and the statistics of the run's that they observe — the compiler
// places a tap only in its target's block — and every block's join tree,
// since upstream schemas compile from them.
func encodeRunRequest(base *workerRunRequest, chain []int, maxPayload int64) ([]byte, error) {
	req := *base
	req.Block, req.Then = chain[0], chain[1:]
	req.Observe = nil
	for _, st := range base.Observe {
		if slices.Contains(chain, st.Target.Block) {
			req.Observe = append(req.Observe, st)
		}
	}
	f, err := beginFrame(&req)
	if err != nil {
		return nil, err
	}
	return f.seal(maxPayload)
}

// decodeRunRequest reads a request frame; whether its blocks are a chain is
// its workflow's to say (engine.Chains, requestChain). A section after the
// header is an error here.
func decodeRunRequest(r io.Reader, maxPayload int64) (*workerRunRequest, error) {
	req := &workerRunRequest{}
	f, err := openFrame(r, req, maxPayload)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := f.end(); err != nil {
		return nil, err
	}
	return req, nil
}

// blockResult is one block of a chain as a response carries it: what it
// left behind, or the error it failed with.
type blockResult struct {
	rb  *engine.RemoteBlock
	err error
}

// encodeRunResponse builds the response frame for an executed chain from
// the late tables engine.RunChainCtx returns; only the last block has an
// output, and a failed block ends the chain.
func encodeRunResponse(results []blockResult, maxPayload int64) ([]byte, error) {
	hdr := make([]workerRunResponse, len(results))
	for i, r := range results {
		if r.err != nil {
			hdr[i].Error = r.err.Error()
			continue
		}
		resp := &hdr[i]
		*resp = workerRunResponse{Sources: r.rb.Sources, Rows: r.rb.Rows, Retries: r.rb.Retries, Metrics: r.rb.Metrics}
		for name := range r.rb.Materialized {
			resp.Materialized = append(resp.Materialized, name)
		}
		sort.Strings(resp.Materialized)
		for _, fs := range r.rb.Degraded {
			resp.Degraded = append(resp.Degraded, wireFailedStat{Stat: fs.Stat, Err: fs.Err.Error()})
		}
	}
	f, err := beginFrame(hdr)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		if r.err != nil {
			continue
		}
		if r.rb.Out != nil {
			if err := f.late(r.rb.Out); err != nil {
				return nil, fmt.Errorf("block output: %w", err)
			}
		}
		for _, name := range hdr[i].Materialized {
			if err := f.late(r.rb.Materialized[name]); err != nil {
				return nil, fmt.Errorf("materialized %q: %w", name, err)
			}
		}
		f.section.Reset()
		if r.rb.Observed != nil {
			if _, err := r.rb.Observed.WriteTo(&f.section); err != nil {
				return nil, fmt.Errorf("stats shard: %w", err)
			}
		}
		f.add(f.section.Bytes())
	}
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

// decodeRunResponse reads a worker's 200 body for a chain of n blocks into
// the engine's form, its late tables resolved in db: an entry per block
// that ran, in chain order, the last block's alone with an output, and a
// failed block's last.
func decodeRunResponse(r io.Reader, maxPayload int64, db engine.DB, n int) ([]blockResult, error) {
	var hdr []workerRunResponse
	f, err := openFrame(r, &hdr, maxPayload)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if len(hdr) == 0 || len(hdr) > n {
		return nil, fmt.Errorf("%d block entries for a chain of %d", len(hdr), n)
	}
	results := make([]blockResult, len(hdr))
	for i, resp := range hdr {
		if resp.Error != "" {
			if i < len(hdr)-1 {
				return nil, fmt.Errorf("block entry %d of %d failed, and the chain went on", i, len(hdr))
			}
			results[i].err = errors.New(resp.Error)
			break
		}
		if i == len(hdr)-1 && len(hdr) < n {
			return nil, fmt.Errorf("%d block entries for a chain of %d, the last not failed", len(hdr), n)
		}
		if err := checkSources(resp.Sources, db); err != nil {
			return nil, err
		}
		rb := &engine.RemoteBlock{Rows: resp.Rows, Retries: resp.Retries, Metrics: resp.Metrics}
		if i == n-1 {
			if rb.Out, err = f.lateTable(db); err != nil {
				return nil, fmt.Errorf("block output: %w", err)
			}
		}
		if len(resp.Materialized) > 0 {
			rb.Materialized = make(map[string]*data.Late, len(resp.Materialized))
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
		results[i].rb = rb
	}
	return results, f.end()
}
