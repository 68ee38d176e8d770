package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Block-dispatch frames. Both bodies of a /v1/worker/run exchange are one
// binary frame:
//
//	"EBLK1" | uvarint header length | header JSON | sections
//
// The header is the exchange's scalar fields (WorkerRunRequest or
// WorkerRunResponse); everything bulky follows it as raw sections, each a
// uvarint length and that many bytes, in an order the header fixes —
//
//	request:  one table per Upstream entry (ascending block index)
//	response: the boundary output, one table per Materialized entry
//	          (sorted by name), then the statistics shard (length 0 when
//	          the block was not instrumented)
//
// — so a table crosses the wire as its data.WriteTable bytes and nothing
// else: no base64, no JSON scanning, and the reader hands each section to
// data.ReadTable or stats.ReadStore straight from the body. The section
// order is fixed so that the same block always builds the same bytes; a
// retry re-sends the frame it built once.

const (
	frameMagic       = "EBLK1"
	frameContentType = "application/x-etlopt-block"
)

// beginFrame starts a frame with its header.
func beginFrame(header any) ([]byte, error) {
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	frame := append([]byte(nil), frameMagic...)
	return appendSection(frame, hdr), nil
}

// appendSection appends one length-prefixed section.
func appendSection(frame, payload []byte) []byte {
	return append(binary.AppendUvarint(frame, uint64(len(payload))), payload...)
}

// appendTable appends a table section, encoding through scratch.
func appendTable(frame []byte, scratch *bytes.Buffer, t *data.Table) ([]byte, error) {
	scratch.Reset()
	if err := data.WriteTable(scratch, t); err != nil {
		return nil, err
	}
	return appendSection(frame, scratch.Bytes()), nil
}

// frameReader decodes one frame section by section.
type frameReader struct {
	br *bufio.Reader
}

// openFrame checks the magic and decodes the header into header. Unknown
// header fields are an error: coordinator and workers ship as one binary,
// so a field one side does not know is a bug, not a version skew.
func openFrame(r io.Reader, header any) (*frameReader, error) {
	f := &frameReader{br: bufio.NewReader(r)}
	magic := make([]byte, len(frameMagic))
	if _, err := io.ReadFull(f.br, magic); err != nil {
		return nil, fmt.Errorf("frame magic: %w", err)
	}
	if string(magic) != frameMagic {
		return nil, fmt.Errorf("bad frame magic %q", magic)
	}
	sec, err := f.section()
	if err != nil {
		return nil, fmt.Errorf("frame header: %w", err)
	}
	// The header grows with the bytes that arrive, not with its declared
	// length.
	hdr, err := io.ReadAll(sec)
	if err != nil {
		return nil, fmt.Errorf("frame header: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(hdr))
	dec.DisallowUnknownFields()
	if err := dec.Decode(header); err != nil {
		return nil, fmt.Errorf("frame header: %w", err)
	}
	if dec.More() {
		return nil, errors.New("frame header: trailing data")
	}
	return f, nil
}

// sectionReader reads one section's bytes; a body that ends inside the
// section is an error, not the section's end.
type sectionReader struct {
	io.LimitedReader
}

func (s *sectionReader) Read(p []byte) (int, error) {
	n, err := s.LimitedReader.Read(p)
	if err == io.EOF && s.N > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// section opens the next section; the caller reads it to its end.
func (f *frameReader) section() (*sectionReader, error) {
	n, err := binary.ReadUvarint(f.br)
	if err != nil {
		return nil, err
	}
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("section length %d", n)
	}
	return &sectionReader{io.LimitedReader{R: f.br, N: int64(n)}}, nil
}

// table decodes the next section as a table.
func (f *frameReader) table() (*data.Table, error) {
	sec, err := f.section()
	if err != nil {
		return nil, err
	}
	return data.ReadTable(sec)
}

// end requires that the frame's last section was the body's last byte.
func (f *frameReader) end() error {
	if _, err := f.br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing bytes after the last section")
		}
		return err
	}
	return nil
}

// encodeRunRequest builds the request frame for one block.
func encodeRunRequest(base *WorkerRunRequest, block int, upstream map[int]*data.Table) ([]byte, error) {
	req := *base
	req.Block = block
	req.Upstream = make([]int, 0, len(upstream))
	for idx := range upstream {
		req.Upstream = append(req.Upstream, idx)
	}
	sort.Ints(req.Upstream)
	frame, err := beginFrame(&req)
	if err != nil {
		return nil, err
	}
	var scratch bytes.Buffer
	for _, idx := range req.Upstream {
		if frame, err = appendTable(frame, &scratch, upstream[idx]); err != nil {
			return nil, fmt.Errorf("upstream block %d: %w", idx, err)
		}
	}
	return frame, nil
}

// decodeRunRequest reads a request frame and its upstream tables.
func decodeRunRequest(r io.Reader) (*WorkerRunRequest, map[int]*data.Table, error) {
	req := &WorkerRunRequest{}
	f, err := openFrame(r, req)
	if err != nil {
		return nil, nil, err
	}
	upstream := make(map[int]*data.Table, len(req.Upstream))
	for _, idx := range req.Upstream {
		if upstream[idx], err = f.table(); err != nil {
			return nil, nil, fmt.Errorf("upstream block %d: %w", idx, err)
		}
	}
	return req, upstream, f.end()
}

// encodeRunResponse builds the response frame for one executed block.
func encodeRunResponse(rb *engine.RemoteBlock) ([]byte, error) {
	resp := WorkerRunResponse{Rows: rb.Rows, Retries: rb.Retries, Metrics: rb.Metrics}
	for name := range rb.Materialized {
		resp.Materialized = append(resp.Materialized, name)
	}
	sort.Strings(resp.Materialized)
	for _, fs := range rb.Degraded {
		resp.Degraded = append(resp.Degraded, WireFailedStat{Stat: fs.Stat, Err: fs.Err.Error()})
	}
	frame, err := beginFrame(&resp)
	if err != nil {
		return nil, err
	}
	var scratch bytes.Buffer
	if frame, err = appendTable(frame, &scratch, rb.Out); err != nil {
		return nil, fmt.Errorf("block output: %w", err)
	}
	for _, name := range resp.Materialized {
		if frame, err = appendTable(frame, &scratch, rb.Materialized[name]); err != nil {
			return nil, fmt.Errorf("materialized %q: %w", name, err)
		}
	}
	scratch.Reset()
	if rb.Observed != nil {
		if _, err := rb.Observed.WriteTo(&scratch); err != nil {
			return nil, fmt.Errorf("stats shard: %w", err)
		}
	}
	return appendSection(frame, scratch.Bytes()), nil
}

// decodeRunResponse reads a worker's 200 body into the engine's form.
func decodeRunResponse(r io.Reader) (*engine.RemoteBlock, error) {
	var resp WorkerRunResponse
	f, err := openFrame(r, &resp)
	if err != nil {
		return nil, err
	}
	rb := &engine.RemoteBlock{Rows: resp.Rows, Retries: resp.Retries, Metrics: resp.Metrics}
	if rb.Out, err = f.table(); err != nil {
		return nil, fmt.Errorf("block output: %w", err)
	}
	if rb.Out == nil {
		return nil, errors.New("block output: nil table")
	}
	if len(resp.Materialized) > 0 {
		rb.Materialized = make(map[string]*data.Table, len(resp.Materialized))
	}
	for _, name := range resp.Materialized {
		if rb.Materialized[name], err = f.table(); err != nil {
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
