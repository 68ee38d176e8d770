package serve

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// frameTable builds a small table named rel.
func frameTable(rel string, rows ...data.Row) *data.Table {
	return &data.Table{Rel: rel, Attrs: []workflow.Attr{{Rel: rel, Col: "k"}, {Rel: rel, Col: "v"}}, Rows: rows}
}

// lateOf returns t as a late table that reads no relation: every column
// plain.
func lateOf(t *data.Table) *data.Late {
	l := &data.Late{Rel: t.Rel, Attrs: t.Attrs, N: len(t.Rows), Cols: make([]data.LateCol, len(t.Attrs))}
	for c := range l.Cols {
		vals := make([]int64, l.N)
		for r, row := range t.Rows {
			vals[r] = row[c]
		}
		l.Cols[c] = data.LateCol{In: -1, Vals: vals}
	}
	return l
}

// frameBlock is a block outcome that fills every part of a response frame,
// its tables as a worker ships them: late, naming no relation.
func frameBlock(t testing.TB) *engine.RemoteBlock {
	return &engine.RemoteBlock{
		Out: lateOf(frameTable("Out", data.Row{1, 2}, data.Row{3, 4})),
		Materialized: map[string]*data.Late{
			"rejects": lateOf(frameTable("rejects", data.Row{9, 9})),
			"audit":   lateOf(frameTable("audit")),
		},
		Rows:     7,
		Observed: scalarStore(t, 40),
		Degraded: []engine.FailedStat{{Stat: stats.NewCard(stats.BlockSE(0, 1)), Err: errors.New("tap failed")}},
		Retries:  2,
	}
}

// rowsOf returns the rows of a block's tables, as the scheduler builds them:
// its output (nil inside a chain) and its materialized targets.
func rowsOf(rb *engine.RemoteBlock) (*data.Table, map[string]*data.Table) {
	var out *data.Table
	if rb.Out != nil {
		out = rb.Out.Table()
	}
	mat := make(map[string]*data.Table, len(rb.Materialized))
	for name, l := range rb.Materialized {
		mat[name] = l.Table()
	}
	return out, mat
}

// responseFrame, chainResponseFrame and requestFrame encode under the
// production cap: a chain of one block, a chain of the given blocks, and a
// request for a chain.
func responseFrame(t testing.TB, rb *engine.RemoteBlock) []byte {
	t.Helper()
	return chainResponseFrame(t, blockResult{rb: rb})
}

func chainResponseFrame(t testing.TB, results ...blockResult) []byte {
	t.Helper()
	frame, err := encodeRunResponse(results, maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func requestFrame(t testing.TB, base *workerRunRequest, chain ...int) []byte {
	t.Helper()
	frame, err := encodeRunRequest(base, chain, maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// decodeBlock reads a response frame for a chain of one block.
func decodeBlock(r io.Reader, maxPayload int64, db engine.DB) (*engine.RemoteBlock, error) {
	results, err := decodeRunResponse(r, maxPayload, db, 1)
	if err != nil {
		return nil, err
	}
	return results[0].rb, results[0].err
}

// framePayload takes a frame apart by the layout in frame.go's header
// comment, with nothing of frame.go's reader but its dictionary: its mode
// byte and its payload, inflated when the frame is deflated.
func framePayload(t testing.TB, frame []byte) (mode byte, payload []byte) {
	t.Helper()
	if !bytes.HasPrefix(frame, []byte(frameMagic)) {
		t.Fatalf("frame starts % x", frame[:min(len(frame), 8)])
	}
	mode = frame[len(frameMagic)]
	n, w := binary.Uvarint(frame[len(frameMagic)+1:])
	body := frame[len(frameMagic)+1+w:]
	if mode == frameDeflate {
		var err error
		if body, err = io.ReadAll(flate.NewReaderDict(bytes.NewReader(body), frameDict)); err != nil {
			t.Fatalf("inflate: %v", err)
		}
	}
	if uint64(len(body)) != n {
		t.Fatalf("frame declares %d payload bytes and carries %d", n, len(body))
	}
	return mode, body
}

// sealedFrame wraps a payload the way a peer of its own mind would: in the
// given mode, declaring the given length, true or not, deflated against the
// frames' dictionary.
func sealedFrame(t testing.TB, mode byte, declared uint64, payload []byte) []byte {
	return sealedFrameDict(t, mode, declared, payload, frameDict)
}

// sealedFrameDict is sealedFrame deflating against the given dictionary.
func sealedFrameDict(t testing.TB, mode byte, declared uint64, payload, dict []byte) []byte {
	t.Helper()
	frame := append([]byte(frameMagic), mode)
	frame = binary.AppendUvarint(frame, declared)
	if mode != frameDeflate {
		return append(frame, payload...)
	}
	var packed bytes.Buffer
	fw, err := flate.NewWriterDict(&packed, flate.BestCompression, dict)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(payload)
	fw.Close()
	return append(frame, packed.Bytes()...)
}

func TestRunFramesRoundTrip(t *testing.T) {
	want := frameBlock(t)
	frame := responseFrame(t, want)
	again := responseFrame(t, frameBlock(t))
	if !bytes.Equal(frame, again) {
		t.Fatal("the same block built two different response frames")
	}
	got, err := decodeBlock(bytes.NewReader(frame), maxUploadBytes, nil)
	if err != nil || got.Out == nil {
		t.Fatalf("decodeRunResponse: %+v, %v", got, err)
	}
	gotOut, gotMat := rowsOf(got)
	wantOut, wantMat := rowsOf(want)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotMat, wantMat) {
		t.Error("tables differ after the round trip")
	}
	if got.Rows != want.Rows || got.Retries != want.Retries {
		t.Errorf("rows/retries = %d/%d, want %d/%d", got.Rows, got.Retries, want.Rows, want.Retries)
	}
	if len(got.Degraded) != 1 || got.Degraded[0].Err.Error() != "tap failed" || !reflect.DeepEqual(got.Degraded[0].Stat, want.Degraded[0].Stat) {
		t.Errorf("degraded = %+v", got.Degraded)
	}
	if got.Metrics != nil {
		t.Errorf("a block without a metrics shard decoded one: %+v", got.Metrics)
	}
	withShard := frameBlock(t)
	withShard.Metrics = []physical.Metrics{{RowsOut: 5, Calls: 1, WallNanos: 10, TapNanos: 3}, {}, {RowsOut: 2}}
	shardFrame := responseFrame(t, withShard)
	if gotShard, err := decodeBlock(bytes.NewReader(shardFrame), maxUploadBytes, nil); err != nil || !reflect.DeepEqual(gotShard.Metrics, withShard.Metrics) {
		t.Errorf("metrics shard after the round trip: %+v (%v)", gotShard, err)
	}
	var a, b bytes.Buffer
	want.Observed.WriteTo(&a)
	got.Observed.WriteTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("statistics shard differs after the round trip")
	}
	// A chain's frame: its blocks' entries in order, the last alone with
	// an output; a failed block ends it, with its error's text.
	inner := frameBlock(t)
	inner.Out = nil
	for _, n := range []int{2, 3} {
		chain := chainResponseFrame(t, blockResult{rb: inner}, blockResult{rb: frameBlock(t)})
		if n == 3 {
			chain = chainResponseFrame(t, blockResult{rb: inner}, blockResult{rb: inner}, blockResult{err: errors.New("join n4: injected permanent operator fault at op:2:2")})
		}
		results, err := decodeRunResponse(bytes.NewReader(chain), maxUploadBytes, nil, n)
		if err != nil || len(results) != n {
			t.Fatalf("a chain of %d: %d results, %v", n, len(results), err)
		}
		for i, r := range results {
			switch last := i == n-1; {
			case last && n == 3:
				if r.rb != nil || r.err == nil || r.err.Error() != "join n4: injected permanent operator fault at op:2:2" {
					t.Errorf("a chain of %d: the failed block decodes to %+v, %v", n, r.rb, r.err)
				}
			case r.err != nil || (r.rb.Out != nil) != last || r.rb.Rows != want.Rows || r.rb.Observed.Len() != want.Observed.Len():
				t.Errorf("a chain of %d: block %d decodes to %+v, %v", n, i, r.rb, r.err)
			default:
				if _, mat := rowsOf(r.rb); !reflect.DeepEqual(mat, wantMat) {
					t.Errorf("a chain of %d: block %d's materialized tables differ", n, i)
				}
			}
		}
		// Read as a longer chain, a chain that did not fail is malformed.
		if _, err := decodeRunResponse(bytes.NewReader(chain), maxUploadBytes, nil, n+1); (err == nil) != (n == 3) {
			t.Errorf("a chain of %d read as one of %d: %v", n, n+1, err)
		}
	}

	// The session's statistics are the run's; a request carries those of
	// its chain's blocks.
	block3, block5 := stats.NewCard(stats.BlockSE(3, 1)), stats.NewCard(stats.BlockSE(5, 2))
	base := &workerRunRequest{WF: 8, Scale: 0.5, Instrument: true, Observe: []stats.Stat{stats.NewCard(stats.BlockSE(1, 3)), block3, block5}}
	reqFrame := requestFrame(t, base, 3, 4, 5)
	req, err := decodeRunRequest(bytes.NewReader(reqFrame), maxUploadBytes)
	if err != nil {
		t.Fatalf("decodeRunRequest: %v", err)
	}
	if req.Block != 3 || req.WF != 8 || !reflect.DeepEqual(req.Then, []int{4, 5}) || !reflect.DeepEqual(req.Observe, []stats.Stat{block3, block5}) {
		t.Errorf("request header = %+v", req)
	}
	if sections := frameSections(t, reqFrame); len(sections) != 1 {
		t.Errorf("the request has %d sections after its header", len(sections)-1)
	}
	if base.Block != 0 || base.Then != nil || len(base.Observe) != 3 {
		t.Error("encodeRunRequest modified the session's base request")
	}
}

// TestRunFramesGoldenBytes pins the wire: a run without metrics builds, for
// every knob a worker mirrors, the frames the format has always had — only
// who fills the request changed (the engine's DispatchSpec, not RunSpec) and
// the metrics shard is absent from both headers unless asked for. What is
// pinned is the payload: its DEFLATE form belongs to the Go release that
// built the program, and is only required to carry the payload back. The
// stats shard is pinned apart from the sections before it: it is the
// store's own byte form, whose version moves independently of the frame's.
// The request is its header alone, and carries the one statistic of the
// run's two that its block observes. The response's tables are late
// sections (data.WriteLate) of one plain group each: they name no relation.
// A second response carries a join of a relation with itself, in its
// expanded form.
func TestRunFramesGoldenBytes(t *testing.T) {
	const (
		goldenRequest  = "ef017b227766223a382c227363616c65223a302e352c226d61785f726f7773223a313030302c226661756c7473223a22736565643d372c726174653d312c7472616e7369656e743d31222c22637373223a7b22556e696f6e4469766973696f6e223a747275657d2c22696e737472756d656e74223a747275652c226f627365727665223a5b7b224b696e64223a302c22546172676574223a7b22426c6f636b223a332c22536574223a312c224465707468223a2d312c2252656a656374496e707574223a2d312c2252656a65637445646765223a2d317d2c224174747273223a6e756c6c7d5d2c22626c6f636b223a337d"
		goldenResponse = "c5015b7b226d6174657269616c697a6564223a5b226175646974222c2272656a65637473225d2c22726f7773223a372c226465677261646564223a5b7b2273746174223a7b224b696e64223a302c22546172676574223a7b22426c6f636b223a302c22536574223a312c224465707468223a2d312c2252656a656374496e707574223a2d312c2252656a65637445646765223a2d317d2c224174747273223a6e756c6c7d2c22657272223a22746170206661696c6564227d5d2c2272657472696573223a327d5d284554424c3502034f757402034f7574016b034f7574017602010000000102020401010102040401011e4554424c350205617564697402056175646974016b056175646974017600304554424c35020772656a65637473020772656a65637473016b0772656a65637473017601010000000101120101011201"

		// A response whose output is a join of D with itself on its key:
		// the section names D twice, then the expansion — group 0's
		// survivors, rows 0 and 1 as the bitmap 0b11 of D's rows, and group
		// 1's, keyed by D.k on level 0's D.k — and the plain column.
		goldenJoin = "0c5b7b22726f7773223a307d5d414554424c35040544e28b8844040144016b01440176014401760544e28b88440166040301014402010144020000000001010102000003010000000003000a0c0c0a00"

		// The stats shard, the response's last section, in store format
		// version 4; goldenResponse is every section before it.
		goldenShard = "3145544c5354415404020000020101010050020002010101194554424c350100020154016100000500020406080a01010205"
	)
	// The request a session builds from RunSpec + DispatchSpec.
	coord, err := NewCoordinator(RunSpec{WF: 8, Scale: 0.5, MaxRows: 1000, CSS: css.DefaultOptions()}, CoordinatorOptions{Addrs: []string{"http://127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	spec := &engine.DispatchSpec{
		Instrument: true, Observe: []stats.Stat{stats.NewCard(stats.BlockSE(1, 3)), stats.NewCard(stats.BlockSE(3, 1))},
		Faults: "seed=7,rate=1,transient=1",
	}
	req := requestFrame(t, coord.baseRequest(spec), 3)
	mode, payload := framePayload(t, req)
	if got := hex.EncodeToString(payload); got != goldenRequest {
		t.Errorf("request payload changed on the wire:\n got %s\nwant %s", got, goldenRequest)
	}
	if mode != frameDeflate || len(req) >= len(payload) {
		t.Errorf("request frame: mode %d, %d bytes for a payload of %d", mode, len(req), len(payload))
	}
	if hdr, err := decodeRunRequest(bytes.NewReader(req), maxUploadBytes); err != nil || hdr.Block != 3 {
		t.Errorf("request frame does not decode to what built it: %+v, %v", hdr, err)
	}
	resp := responseFrame(t, frameBlock(t))
	mode, payload = framePayload(t, resp)
	if got, want := hex.EncodeToString(payload), goldenResponse+goldenShard; got != want {
		t.Errorf("response payload changed on the wire:\n got %s\nwant %s", got, want)
	}
	if mode != frameDeflate || len(resp) >= len(payload) {
		t.Errorf("response frame: mode %d, %d bytes for a payload of %d", mode, len(resp), len(payload))
	}
	if rb, err := decodeBlock(bytes.NewReader(resp), maxUploadBytes, nil); err != nil || !reflect.DeepEqual(rb.Out.Table(), frameBlock(t).Out.Table()) {
		t.Errorf("response frame does not decode to what built it: %v", err)
	}
	// A join's output crosses as its expansion, the loop that made it: D's
	// rows, then D's rows of each one's key, with a plain column after them.
	d := frameDB["D"]
	joined := &engine.RemoteBlock{Out: &data.Late{Rel: "D⋈D", Attrs: []workflow.Attr{d.Attrs[0], d.Attrs[1], d.Attrs[1], {Rel: "D⋈D", Col: "f"}}, N: 4,
		Ins:    []data.LateInput{{Src: d, Idx: []int32{0, 0, 1, 1}}, {Src: d, Idx: []int32{0, 1, 0, 1}}},
		Cols:   []data.LateCol{{In: 0, Col: 0}, {In: 0, Col: 1}, {In: 1, Col: 1}, {In: -1, Vals: []int64{5, 6, 6, 5}}},
		Levels: []data.LateLevel{{In: 0}, {In: 1, Key: 0, From: 0, FromCol: 0}}}}
	resp = responseFrame(t, joined)
	if _, payload = framePayload(t, resp); hex.EncodeToString(payload) != goldenJoin {
		t.Errorf("a join's response payload changed on the wire:\n got %x\nwant %s", payload, goldenJoin)
	}
	if rb, err := decodeBlock(bytes.NewReader(resp), maxUploadBytes, frameDB); err != nil || !reflect.DeepEqual(rb.Out.Table(), joined.Out.Table()) {
		t.Errorf("a join's response frame does not decode to what built it: %v", err)
	}
}

// TestRunFrameStoredMode: a frame DEFLATE cannot shrink travels as it is,
// and reads as its deflated twin does. A header alone always deflates
// smaller against the dictionary; this payload ends in random bytes.
func TestRunFrameStoredMode(t *testing.T) {
	junk := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(junk)
	frame := mustFrame(t, &workerRunRequest{WF: 6, Block: 1}, junk)
	mode, payload := framePayload(t, frame)
	if mode != frameStored || len(frame) != len(frameMagic)+1+len(binary.AppendUvarint(nil, uint64(len(payload))))+len(payload) {
		t.Fatalf("a %d-byte payload travels in mode %d as %d bytes", len(payload), mode, len(frame))
	}
	// The same payload deflated is a frame too, but not the writer's.
	for m, fr := range [][]byte{frame, sealedFrame(t, frameDeflate, uint64(len(payload)), payload)} {
		var hdr workerRunRequest
		r, err := openFrame(bytes.NewReader(fr), &hdr, maxUploadBytes)
		if err != nil {
			t.Fatalf("mode %d: %v", m, err)
		}
		sec, err := r.section()
		if err != nil {
			t.Fatalf("mode %d: %v", m, err)
		}
		got, err := io.ReadAll(sec)
		if err == nil {
			err = r.end()
		}
		r.close()
		if err != nil || hdr.WF != 6 || hdr.Block != 1 || !bytes.Equal(got, junk) {
			t.Errorf("mode %d: header %+v, a section of %d bytes (equal %v), %v", m, hdr, len(got), bytes.Equal(got, junk), err)
		}
	}
}

// TestRunFrameCap pins the inflation guard: a frame is refused with the
// typed error for declaring more payload than the reader's cap, before a
// byte of it is inflated, and for inflating past what it declared, at the
// byte where it does — so a kilobyte of deflated zeros costs the reader no
// more than an honest frame would. A stored body past its claim is bytes
// after the payload: malformed, not over the cap, and no dearer to refuse.
func TestRunFrameCap(t *testing.T) {
	const limit = 1 << 20
	_, payload := framePayload(t, responseFrame(t, frameBlock(t)))
	// A shard section long enough to take the payload past the cap.
	bomb := append(payload[:len(payload):len(payload)], make([]byte, limit)...)
	honest := sealedFrame(t, frameDeflate, uint64(len(bomb)), bomb)
	if len(honest) > 2048 {
		t.Fatalf("bomb is %d bytes", len(honest))
	}
	for _, mode := range []byte{frameStored, frameDeflate} {
		for name, tc := range map[string]struct {
			frame  []byte
			capped bool
		}{
			"declared over the cap": {sealedFrame(t, mode, uint64(len(bomb)), bomb), true},
			"past its claim":        {sealedFrame(t, mode, uint64(len(payload)), bomb), mode == frameDeflate},
		} {
			decodeBlock(bytes.NewReader(tc.frame), limit, nil) // warm the pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeBlock(bytes.NewReader(tc.frame), limit, nil)
			runtime.ReadMemStats(&after)
			if err == nil || errors.Is(err, errFrameCap) != tc.capped {
				t.Errorf("mode %d, %s: err = %v, want errFrameCap %v", mode, name, err, tc.capped)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= limit/2 {
				t.Errorf("mode %d, %s: refusing the frame allocated %d bytes", mode, name, got)
			}
		}
	}
	if _, err := decodeBlock(bytes.NewReader(honest), limit+int64(len(payload)), nil); errors.Is(err, errFrameCap) {
		t.Errorf("a frame under the cap was refused for its size: %v", err)
	}
	// A stream of matches into the dictionary, past what its frame declared,
	// is stopped where it passes the claim like any other.
	echo := append(payload[:len(payload):len(payload)], bytes.Repeat(frameDict, limit/len(frameDict)+1)...)
	if deflated := sealedFrame(t, frameDeflate, uint64(len(payload)), echo); len(deflated) > 16<<10 {
		t.Errorf("the dictionary echo deflates to %d bytes", len(deflated))
	} else {
		decodeBlock(bytes.NewReader(deflated), limit, nil) // warm the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeBlock(bytes.NewReader(deflated), limit, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errFrameCap) {
			t.Errorf("dictionary echo past its claim: err = %v, want errFrameCap", err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit/2 {
			t.Errorf("dictionary echo past its claim: refusing the frame allocated %d bytes", got)
		}
	}
	if _, err := encodeRunResponse([]blockResult{{rb: frameBlock(t)}}, 64); !errors.Is(err, errFrameCap) {
		t.Errorf("writing a frame over the cap: err = %v, want errFrameCap", err)
	}
}

func TestRunFrameRejectsCorruption(t *testing.T) {
	decode := func(frame []byte) error {
		_, err := decodeBlock(bytes.NewReader(frame), maxUploadBytes, nil)
		return err
	}
	deflated := responseFrame(t, frameBlock(t))
	_, payload := framePayload(t, deflated)
	for mode, frame := range [][]byte{sealedFrame(t, frameStored, uint64(len(payload)), payload), deflated} {
		if err := decode(frame); err != nil {
			t.Fatalf("mode %d: whole frame: %v", mode, err)
		}
		for n := 0; n < len(frame); n++ {
			if decode(frame[:n]) == nil {
				t.Fatalf("mode %d: truncated frame of %d/%d bytes decoded without error", mode, n, len(frame))
			}
		}
		// A byte after the payload is malformed, never a block over the cap.
		if err := decode(append(append([]byte{}, frame...), 0)); err == nil || overCap(err) {
			t.Errorf("mode %d: trailing byte: err = %v", mode, err)
		}
		bad := append([]byte{}, frame...)
		bad[0] ^= 0xff
		if decode(bad) == nil {
			t.Errorf("mode %d: bad magic accepted", mode)
		}
		bad = append([]byte{}, frame...)
		bad[len(frameMagic)] = 2
		if decode(bad) == nil {
			t.Errorf("mode %d: unknown mode accepted", mode)
		}
	}
	// One section short of its declared length, and one long.
	if decode(sealedFrame(t, frameDeflate, uint64(len(payload))+1, payload)) == nil {
		t.Error("payload shorter than declared accepted")
	}
	if decode(sealedFrame(t, frameDeflate, uint64(len(payload)), append(payload[:len(payload):len(payload)], 0))) == nil {
		t.Error("payload longer than declared accepted")
	}
	if err := decode(mustFrame(t, []map[string]int{{"rows": 1, "bogus": 2}})); !errors.Is(err, errFrameHeader) || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown header field: err = %v", err)
	}
	// The formats this one replaced are refused by name, not as noise:
	// EBLK3 is this layout from a build whose late sections had no
	// expansions, and EBLK4 from one whose expansions sent every level's
	// survivors as a gap list.
	for _, magic := range []string{"EBLK1", "EBLK2", "EBLK3", "EBLK4"} {
		old := append([]byte(magic), deflated[len(frameMagic):]...)
		if err := decode(old); !errors.Is(err, errFrameVersion) || !strings.Contains(err.Error(), `starts "`+magic+`"`) {
			t.Errorf("a frame of version %s: err = %v", magic, err)
		}
	}
}

// TestRunFrameDictionary: the dictionary is what makes a request small, and
// why the magic moved. An EBLK2 frame — the same layout, deflated with no
// dictionary — is refused by its magic, typed, at the worker a 400. A
// payload deflated with no dictionary under this version's magic is the
// same payload: a stream that never reaches into the dictionary inflates
// alike with it, so it reads back, and is no hazard. A stream that does
// reach into it is corrupt to a reader without it, as EBLK2's reader was.
// The dictionary's own bytes are pinned, by length and SHA-256: every frame
// deflates against them, so they move every frame's bytes. Its late section
// is in the expanded form, presence byte 4, that a join output takes.
func TestRunFrameDictionary(t *testing.T) {
	const (
		pinnedDictLen = 1120
		pinnedDictSum = "c4001297855b39746c1a3a09089829fb18c83b7aba2f21e1031404bbda5aaca9"
	)
	if sum := sha256.Sum256(frameDict); len(frameDict) != pinnedDictLen || hex.EncodeToString(sum[:]) != pinnedDictSum {
		t.Errorf("the dictionary is %d bytes, SHA-256 %x; want %d, %s", len(frameDict), sum, pinnedDictLen, pinnedDictSum)
	}
	if at := bytes.Index(frameDict, []byte("ETBL5")); at < 0 || frameDict[at+len("ETBL5")] != 4 {
		t.Errorf("the dictionary's late section at byte %d is not in the expanded form", at)
	}
	req := requestFrame(t, &workerRunRequest{WF: 8, Scale: 0.05, CSS: css.DefaultOptions(), Instrument: true,
		Observe: []stats.Stat{stats.NewCard(stats.BlockSE(3, 1)), stats.NewCard(stats.BlockSE(3, 2))}}, 3)
	mode, payload := framePayload(t, req)
	plain := sealedFrameDict(t, frameDeflate, uint64(len(payload)), payload, nil)
	if mode != frameDeflate || len(req) >= len(plain) {
		t.Errorf("a request of %d payload bytes is %d bytes in mode %d, and %d deflated with no dictionary", len(payload), len(req), mode, len(plain))
	}
	got, err := decodeRunRequest(bytes.NewReader(plain), maxUploadBytes)
	if err != nil || got.Block != 3 {
		t.Errorf("a payload deflated with no dictionary: %+v, %v", got, err)
	}
	if _, err := io.ReadAll(flate.NewReader(bytes.NewReader(req[len(frameMagic)+2:]))); err == nil {
		t.Error("a frame deflated against the dictionary inflated without it")
	}
	eblk2 := append([]byte("EBLK2"), plain[len(frameMagic):]...)
	if _, err := decodeRunRequest(bytes.NewReader(eblk2), maxUploadBytes); !errors.Is(err, errFrameVersion) {
		t.Errorf("an EBLK2 request: err = %v, want errFrameVersion", err)
	}
	if code := postFrame(NewWorker().Handler(), eblk2); code != http.StatusBadRequest {
		t.Errorf("an EBLK2 request: status %d, want 400", code)
	}
	resp := responseFrame(t, frameBlock(t))
	_, payload = framePayload(t, resp)
	eblk2 = append([]byte("EBLK2"), sealedFrameDict(t, frameDeflate, uint64(len(payload)), payload, nil)[len(frameMagic):]...)
	if _, err := decodeBlock(bytes.NewReader(eblk2), maxUploadBytes, nil); !errors.Is(err, errFrameVersion) {
		t.Errorf("an EBLK2 response: err = %v, want errFrameVersion", err)
	}
}

// TestWorkerRefusesMalformedFrames pins the worker's answer to bodies that
// are not a request frame, or name no chain it can run: 400 with a JSON
// error, never a panic or a 5xx.
func TestWorkerRefusesMalformedFrames(t *testing.T) {
	h := NewWorker().Handler()
	deflated := requestFrame(t, &workerRunRequest{WF: 6, Scale: distScale}, 0)
	_, payload := framePayload(t, deflated)
	stored := sealedFrame(t, frameStored, uint64(len(payload)), payload)
	legacy, _ := json.Marshal(map[string]any{"wf": 6, "scale": distScale, "block": 0})
	var table bytes.Buffer
	if err := data.WriteTable(&table, frameTable("B0", data.Row{1, 2})); err != nil {
		t.Fatal(err)
	}
	header := &workerRunRequest{WF: 6, Scale: distScale}
	bodies := map[string][]byte{
		"empty":              nil,
		"json":               legacy,
		"truncated stored":   stored[:len(stored)-1],
		"trailing stored":    append(append([]byte{}, stored...), 0),
		"truncated deflated": deflated[:len(deflated)-1],
		"trailing deflated":  append(append([]byte{}, deflated...), 0),
		// A request is its header: it names a chain, never carries a table.
		"upstream field":                 mustFrame(t, map[string]any{"wf": 6, "scale": distScale, "block": 1, "upstream": []int{0}}),
		"table after the header":         mustFrame(t, header, table.Bytes()),
		"empty section after the header": mustFrame(t, header, nil),
		// The row interpreters are gone from the product; a peer still asking
		// for one must be refused, not silently run columnar.
		"row_mode": mustFrame(t, map[string]any{"wf": 6, "scale": distScale, "block": 0, "row_mode": true}),
		// A response sent as a request.
		"response": responseFrame(t, frameBlock(t)),
	}
	for _, c := range hostileChains {
		bodies[c.name] = c.frame
	}
	for name, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/run", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s: status %d, body %q", name, rec.Code, rec.Body.String())
		}
	}
}

// hostileChain is a request whose blocks are not a chain a worker can run,
// or that speaks the hold-and-name protocol chains replaced, and the typed
// error that refuses it (see refuseChain).
type hostileChain struct {
	name  string
	frame []byte
	want  error
}

// hostileChains are over wf07, the chain 0 → 1, wf08, the chain 0 → 1 →
// 2, and wf13, two blocks that read no block.
var hostileChains = func() []hostileChain {
	frame := func(header map[string]any) []byte {
		header["scale"] = distScale
		f, err := beginFrame(header)
		if err != nil {
			panic(err)
		}
		b, err := f.seal(maxUploadBytes)
		if err != nil {
			panic(err)
		}
		return b
	}
	return []hostileChain{
		{"then names a block twice", frame(map[string]any{"wf": 7, "block": 0, "then": []int{1, 1}}), errChain},
		{"then past the last block", frame(map[string]any{"wf": 7, "block": 0, "then": []int{2}}), errChain},
		{"then before the first block", frame(map[string]any{"wf": 7, "block": 0, "then": []int{-1}}), errChain},
		{"then names a block that reads nothing before it", frame(map[string]any{"wf": 13, "block": 0, "then": []int{1}}), errChain},
		{"head reads a block", frame(map[string]any{"wf": 7, "block": 1}), errChain},
		{"a prefix of a chain", frame(map[string]any{"wf": 8, "block": 0, "then": []int{1}}), errChain},
		{"resident refs", frame(map[string]any{"wf": 7, "block": 1, "resident": []map[string]any{{"block": 0, "sha256": strings.Repeat("0", 64)}}}), errFrameHeader},
		{"hold", frame(map[string]any{"wf": 7, "block": 0, "hold": true}), errFrameHeader},
	}
}()

// refuseChain is what a worker does with a request before it runs a block:
// decode it, and check that its blocks are exactly one of its suite
// workflow's chains.
func refuseChain(in []byte, maxPayload int64) error {
	req, err := decodeRunRequest(bytes.NewReader(in), maxPayload)
	if err != nil {
		return err
	}
	w, err := suite.Get(req.WF)
	if err != nil {
		return err
	}
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		return err
	}
	_, err = requestChain(an, req)
	return err
}

// TestRunFrameRefusesHostileChains: each hostile chain is refused with its
// typed error, and the chains the engine sends are not.
func TestRunFrameRefusesHostileChains(t *testing.T) {
	for _, c := range hostileChains {
		if err := refuseChain(c.frame, maxUploadBytes); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	for wf, chain := range map[int][]int{7: {0, 1}, 8: {0, 1, 2}, 13: {1}} {
		if err := refuseChain(requestFrame(t, &workerRunRequest{WF: wf, Scale: distScale}, chain...), maxUploadBytes); err != nil {
			t.Errorf("wf%02d's chain %v: %v", wf, chain, err)
		}
	}
}

// TestWorkerResidentOutputs drives a chain through a worker's handler: the
// output of wf07's block 0 stays resident in the request that made it, and
// block 1 reads it there; the response carries, byte for byte, what the
// same chain run in-process with RunChainCtx leaves behind — block 0's
// entry without its output, block 1's with its own.
func TestWorkerResidentOutputs(t *testing.T) {
	h := NewWorker().Handler()
	w := suite.MustGet(7)
	p := core.NewPlan(w.Graph, w.Catalog, css.DefaultOptions())
	sel, err := p.Selection(selector.MethodExact)
	if err != nil {
		t.Fatal(err)
	}
	base := &workerRunRequest{WF: 7, Scale: distScale, CSS: css.DefaultOptions(), Instrument: true, Observe: sel.Observe}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/run", bytes.NewReader(requestFrame(t, base, 0, 1))))
	if rec.Code != http.StatusOK {
		t.Fatalf("chain 0 → 1: status %d: %s", rec.Code, rec.Body.Bytes())
	}

	// The same chain in-process, block 1 reading block 0's late output.
	an, err := p.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.CSS()
	if err != nil {
		t.Fatal(err)
	}
	db := w.Data(distScale)
	local := engine.New(an, db, nil)
	rbs, err := local.RunChainCtx(context.Background(), []int{0, 1}, nil, res, sel.Observe)
	if err != nil {
		t.Fatal(err)
	}
	if want := chainResponseFrame(t, blockResult{rb: rbs[0]}, blockResult{rb: rbs[1]}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("the chain's response (%d bytes) is not the in-process blocks' (%d bytes)", rec.Body.Len(), len(want))
	}
	results, err := decodeRunResponse(rec.Body, maxUploadBytes, db, 2)
	if err != nil || len(results) != 2 || results[0].rb.Out != nil || results[1].rb.Out == nil || results[0].rb.Observed.Len()+results[1].rb.Observed.Len() == 0 {
		t.Errorf("the chain's response decodes to %+v, %v", results, err)
	}
}

// mustFrame seals a frame of the given header and sections, whatever they
// say.
func mustFrame(t testing.TB, header any, sections ...[]byte) []byte {
	t.Helper()
	f, err := beginFrame(header)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range sections {
		f.add(sec)
	}
	frame, err := f.seal(maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// frameDB is the data the hostile late sections below name: relations S,
// of keys 1 and 3, D, of keys 7 and 7, and W, of keys 1 to 20.
var frameDB = engine.DB{"S": frameTable("S", data.Row{1, 2}, data.Row{3, 4}), "D": frameTable("D", data.Row{7, 0}, data.Row{7, 1}), "W": frameTable("W", serialRows(20)...)}

// serialRows is n rows of keys 1 to n.
func serialRows(n int) []data.Row {
	rows := make([]data.Row, n)
	for i := range rows {
		rows[i] = data.Row{int64(i + 1), 0}
	}
	return rows
}

// lateSection writes a late table section by hand, from the format comment
// in internal/data/late.go: one column, S.k, of nrows rows, in one group
// that names rel and declares its row count, after which index — a tag
// byte and its column — is the group's row index.
func lateSection(rel string, declared uint64, nrows uint64, index ...byte) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := append([]byte("ETBL5"), 2)
	b = str(b, "Out")
	b = binary.AppendUvarint(b, 1)
	b = str(str(b, "S"), "k")
	b = binary.AppendUvarint(b, nrows)
	b = append(binary.AppendUvarint(b, 1), 1) // one group, named
	b = binary.AppendUvarint(str(b, rel), declared)
	b = append(b, 0, 0) // column 0 in group 0, S's column 0
	return append(b, index...)
}

// expandedSection writes an expanded late section by hand, from the same
// comment: groups columns, column g reading rel's column k through group g,
// each group naming rel and declaring its row count, nrows rows, and then
// the expansion, rest — per level its group, past the first its key column,
// keying level and keying column, then its survivors.
func expandedSection(rel string, declared, nrows uint64, groups int, rest ...byte) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := append([]byte("ETBL5"), 4)
	b = str(b, "Out")
	b = binary.AppendUvarint(b, uint64(groups))
	for g := 0; g < groups; g++ {
		b = str(str(b, rel), "k")
	}
	b = binary.AppendUvarint(b, nrows)
	b = binary.AppendUvarint(b, uint64(groups))
	for g := 0; g < groups; g++ {
		b = binary.AppendUvarint(str(append(b, 1), rel), declared)
	}
	for g := 0; g < groups; g++ {
		b = append(b, byte(g), 0)
	}
	return append(b, rest...)
}

// lateResponse seals a response frame whose output is the given section,
// from a block that read S's two rows.
func lateResponse(t testing.TB, section []byte) []byte {
	return sourcesResponse(t, map[string]int{"S": 2}, section)
}

// sourcesResponse seals a response frame whose header says the block read
// the given sources, and whose output is the given section.
func sourcesResponse(t testing.TB, sources map[string]int, section []byte) []byte {
	t.Helper()
	f, err := beginFrame([]workerRunResponse{{Rows: 1, Sources: sources}})
	if err != nil {
		t.Fatal(err)
	}
	f.add(section)
	f.add(nil) // no statistics shard
	frame, err := f.seal(maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// hostileLate are response frames whose late output a coordinator holding
// frameDB must refuse, each with the refusal it gets: a row the data does
// not hold is data.ErrUnresolved, which falls back in-process.
var hostileLate = []struct {
	name       string
	section    []byte
	unresolved bool
	refusal    string
}{
	// S rows 0 and 1, plain, then the same as runs.
	{"honest", lateSection("S", 2, 2, 0, 0, 2), false, ""},
	{"index shorter than the rows", lateSection("S", 2, 3, 1, 1, 0, 2), false, "runs cover 2 of 3 rows"},
	{"index past the rows", lateSection("S", 2, 2, 0, 0, 4), true, `row 2 of relation "S", which has 2`},
	{"unknown relation", lateSection("T", 2, 2, 0, 0, 2), true, `relation "T" is not in`},
	{"row count", lateSection("S", 3, 2, 0, 0, 2), true, `relation "S" has 2 rows here, 3 where`},
	{"index as a retired map column", lateSection("S", 2, 2, 3, 0, 0, 2), false, "tag 3 is the retired map encoding"},
	{"index as a retired chain column", lateSection("S", 2, 2, 4, 0, 0, 2), false, "tag 4 is the retired chain encoding"},
	// Expansions: S's two rows, then D joined to itself on its key, which
	// makes four rows. Each level's survivors are a bitmap of its relation
	// (0, then a byte for every 8 rows) or a gap list (the count plus one,
	// then the gaps), whichever is smaller, ties to the bitmap.
	{"honest expansion", expandedSection("S", 2, 2, 1, 0, 0, 3), false, ""},
	{"expansion past the declared rows", expandedSection("D", 2, 3, 2, 0, 0, 3, 1, 0, 0, 0, 0, 3), false, "more than the 3 rows declared"},
	{"expansion short of the declared rows", expandedSection("D", 2, 5, 2, 0, 0, 3, 1, 0, 0, 0, 0, 3), false, "4 rows of the 5 declared"},
	{"survivor past the relation's end", expandedSection("S", 2, 2, 1, 0, 3, 0, 1), true, `past the 2 of relation "S"`},
	{"bit past the relation's end", expandedSection("S", 2, 2, 1, 0, 0, 7), true, `past the 2 of relation "S"`},
	{"bitmap one byte short", expandedSection("S", 2, 2, 1, 0, 0), false, "a bitmap of 1 bytes in 0"},
	{"more set bits than rows", expandedSection("S", 2, 1, 1, 0, 0, 3), false, "2 surviving rows for 1 rows"},
	{"gap list where the bitmap is no larger", expandedSection("S", 2, 2, 1, 0, 3, 0, 0), false, "2 surviving rows take 3 bytes as a gap list and 2 as a bitmap"},
	{"bitmap where the gap list is smaller", expandedSection("W", 20, 1, 1, 0, 0, 1, 0, 0), false, "1 surviving rows take 2 bytes as a gap list and 4 as a bitmap"},
	{"retired expanded form", retiredSection(expandedSection("S", 2, 2, 1, 0, 2, 0, 0)), false, "presence byte 3 is the retired expanded form"},
	{"keyed by a later level", expandedSection("D", 2, 4, 2, 0, 0, 3, 1, 0, 2, 0, 0, 3), false, "keyed by level 2"},
	{"key column out of range", expandedSection("D", 2, 4, 2, 0, 0, 3, 1, 5, 0, 0, 0, 3), true, `column 5 of relation "D"`},
	{"no survivors for the rows declared", expandedSection("S", 2, 2, 1, 0, 1), false, "0 rows of the 2 declared"},
	// D keyed by a plain column that rides S's level, at the value 7 for
	// each of S's rows: the column's values short or long by one, past the
	// table, a named column, or carried by no level.
	{"rider short by one", riderSection(3, 0, 3, 1, 1, 0, 14), false, "column 1's values end at 1 steps"},
	{"rider long by one", riderSection(3, 0, 3, 1, 3, 0, 14, 14, 14), false, "column 1 has 3 values for 2 steps"},
	{"rider past the table", riderSection(3, 0, 3, 5, 2, 0, 14, 14), false, "column 5 of 3"},
	{"rider not plain", riderSection(3, 0, 3, 0, 2, 0, 14, 14), false, "column 0 of 3, a rider or not plain"},
	{"keyed by no rider", riderSection(0, 0, 3), false, "which no earlier level carries"},
}

// retiredSection is section moved to presence byte 3: the expanded form
// whose survivors were gap lists only, which this build refuses.
func retiredSection(section []byte) []byte {
	section[len("ETBL5")] = 3
	return section
}

// riderSection writes by hand an expanded section of four rows over S.k, a
// plain column and D.k, each in a group of its own, from the format comment
// in internal/data/expand.go: S's level, as lead, then D's, keyed on D's
// column 0 by the plain column.
func riderSection(lead ...byte) []byte {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b := append([]byte("ETBL5"), 4)
	b = str(b, "Out")
	b = str(str(str(str(str(str(append(b, 3), "S"), "k"), "Out"), "f"), "D"), "k")
	b = append(b, 4, 3, 1)
	b = append(str(b, "S"), 2, 0, 1)
	b = append(str(b, "D"), 2)
	b = append(b, 0, 0, 1, 2, 0)
	return append(append(b, lead...), 2, 0, 1, 1, 0, 3)
}

// TestRunFrameRefusesHostileLateTables decodes response frames whose output
// names rows the coordinator does not hold, or is malformed around its row
// index, or whose block read other data: each is refused with its own
// error, never a panic, and a name, an index or a source the data cannot
// resolve is data.ErrUnresolved.
func TestRunFrameRefusesHostileLateTables(t *testing.T) {
	for _, c := range hostileLate {
		rb, err := decodeBlock(bytes.NewReader(lateResponse(t, c.section)), maxUploadBytes, frameDB)
		if c.refusal == "" {
			if err != nil || !reflect.DeepEqual(rb.Out.Table().Rows, []data.Row{{1}, {3}}) {
				t.Errorf("%s: %v, rows %v", c.name, err, rb)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.refusal) || errors.Is(err, data.ErrUnresolved) != c.unresolved {
			t.Errorf("%s: err = %v, want %q (unresolved %v)", c.name, err, c.refusal, c.unresolved)
		}
	}
	// A block that read a relation the coordinator's data lacks, or holds at
	// another row count, is refused whatever its tables name.
	honest := hostileLate[0].section
	for sources, refusal := range map[string]string{
		`{"S": 3}`: `the block read relation "S" at 3 rows, the run's data has 2`,
		`{"T": 2}`: `the block read relation "T", which is not in`,
	} {
		var declared map[string]int
		if err := json.Unmarshal([]byte(sources), &declared); err != nil {
			t.Fatal(err)
		}
		_, err := decodeBlock(bytes.NewReader(sourcesResponse(t, declared, honest)), maxUploadBytes, frameDB)
		if !errors.Is(err, data.ErrUnresolved) || !strings.Contains(err.Error(), refusal) {
			t.Errorf("sources %s: err = %v, want %q", sources, err, refusal)
		}
	}
}

// FuzzRunFrame drives both frame decoders — the worker's, open to any peer
// that can reach its port, and the coordinator's — with arbitrary bytes
// under a small cap: an error or a block, never a panic, and never more
// memory than a frame of the cap could honestly ask for.
func FuzzRunFrame(f *testing.F) {
	const limit = 1 << 16
	resp := responseFrame(f, frameBlock(f))
	_, payload := framePayload(f, resp)
	req := requestFrame(f, &workerRunRequest{WF: 8, Scale: 0.5, Instrument: true}, 0, 1, 2)
	f.Add(resp)
	f.Add(req)
	_, small := framePayload(f, mustFrame(f, map[string]int{"wf": 6}))
	f.Add(sealedFrame(f, frameStored, uint64(len(small)), small))
	f.Add(sealedFrame(f, frameStored, uint64(len(payload)), payload))
	f.Add(sealedFrame(f, frameDeflate, uint64(len(payload)), append(payload[:len(payload):len(payload)], make([]byte, 1<<20)...)))
	f.Add(sealedFrame(f, frameDeflate, 1<<40, nil))
	// The previous versions' frames, and this one's payload deflated with
	// no dictionary.
	f.Add(append([]byte("EBLK2"), sealedFrameDict(f, frameDeflate, uint64(len(payload)), payload, nil)[len(frameMagic):]...))
	f.Add(append([]byte("EBLK3"), resp[len(frameMagic):]...))
	f.Add(append([]byte("EBLK4"), resp[len(frameMagic):]...))
	f.Add(sealedFrameDict(f, frameDeflate, uint64(len(payload)), payload, nil))
	f.Add(sealedFrame(f, frameDeflate, uint64(len(payload)), append(payload[:len(payload):len(payload)], bytes.Repeat(frameDict, 64)...)))
	// Frames cut short: a request, and a response from a worker that died
	// while sending it.
	for n := 0; n < len(req); n += 7 {
		f.Add(req[:n])
	}
	for n := 3; n < len(resp); n += 7 {
		f.Add(resp[:n])
	}
	// A chain's response, one that ends in a failed block, and the first
	// cut short as a worker that died while sending it leaves it.
	inner := frameBlock(f)
	inner.Out = nil
	chain := chainResponseFrame(f, blockResult{rb: inner}, blockResult{rb: frameBlock(f)})
	f.Add(chain)
	f.Add(chainResponseFrame(f, blockResult{rb: inner}, blockResult{err: errors.New("block failed")}))
	for n := 5; n < len(chain); n += 7 {
		f.Add(chain[:n])
	}
	// Bytes after the payload, in both modes, and a stored body past its claim.
	f.Add(append(sealedFrame(f, frameStored, uint64(len(payload)), payload), 0))
	f.Add(append(sealedFrame(f, frameDeflate, uint64(len(payload)), payload), 0))
	f.Add(sealedFrame(f, frameStored, uint64(len(payload)), append(payload[:len(payload):len(payload)], 0)))
	// A request with sections after its header: a late table, and an empty
	// one.
	f.Add(mustFrame(f, &workerRunRequest{WF: 8, Scale: 0.5, Block: 3}, hostileLate[0].section))
	f.Add(mustFrame(f, &workerRunRequest{WF: 8, Scale: 0.5, Block: 3}, nil))
	// One late output per refusal a late section can get.
	for _, c := range hostileLate {
		f.Add(lateResponse(f, c.section))
	}
	f.Add(sourcesResponse(f, map[string]int{"S": 3}, hostileLate[0].section))
	// Chains no worker runs, and the protocol chains replaced.
	for _, c := range hostileChains {
		f.Add(c.frame)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		refuseChain(in, limit)
		for n := 1; n <= 3; n++ {
			decodeRunResponse(bytes.NewReader(in), limit, frameDB, n)
		}
		runtime.ReadMemStats(&after)
		// 40 bytes a cell of a table of the cap's cells, twice, and the
		// codec's fixed scratch: a bomb would be hundreds of megabytes.
		if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
			t.Fatalf("decoding %d bytes under a cap of %d allocated %d", len(in), limit, got)
		}
	})
}
