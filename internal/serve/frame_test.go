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

// frameBlock is a block outcome that fills every part of a response frame:
// its tables as a worker ships them (late, naming no relation), and as a
// coordinator reads them back.
func frameBlock(t testing.TB) *engine.RemoteBlock {
	rb := &engine.RemoteBlock{
		Out: frameTable("Out", data.Row{1, 2}, data.Row{3, 4}),
		Materialized: map[string]*data.Table{
			"rejects": frameTable("rejects", data.Row{9, 9}),
			"audit":   frameTable("audit"),
		},
		LateMaterialized: map[string]*data.Late{},
		Rows:             7,
		Observed:         scalarStore(t, 40),
		Degraded:         []engine.FailedStat{{Stat: stats.NewCard(stats.BlockSE(0, 1)), Err: errors.New("tap failed")}},
		Retries:          2,
	}
	rb.LateOut = lateOf(rb.Out)
	for name, tbl := range rb.Materialized {
		rb.LateMaterialized[name] = lateOf(tbl)
	}
	return rb
}

// responseFrame and requestFrame encode under the production cap.
func responseFrame(t testing.TB, rb *engine.RemoteBlock) []byte {
	t.Helper()
	frame, err := encodeRunResponse(rb, maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func requestFrame(t testing.TB, base *workerRunRequest, block int, resident ...residentRef) []byte {
	t.Helper()
	frame, _, err := encodeRunRequest(base, block, false, resident, maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// framePayload takes a frame apart by the layout in frame.go's header
// comment, with nothing of frame.go's reader: its mode byte and its payload,
// inflated when the frame is deflated.
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
		if body, err = io.ReadAll(flate.NewReader(bytes.NewReader(body))); err != nil {
			t.Fatalf("inflate: %v", err)
		}
	}
	if uint64(len(body)) != n {
		t.Fatalf("frame declares %d payload bytes and carries %d", n, len(body))
	}
	return mode, body
}

// sealedFrame wraps a payload the way a peer of its own mind would: in the
// given mode, declaring the given length, true or not.
func sealedFrame(t testing.TB, mode byte, declared uint64, payload []byte) []byte {
	t.Helper()
	frame := append([]byte(frameMagic), mode)
	frame = binary.AppendUvarint(frame, declared)
	if mode != frameDeflate {
		return append(frame, payload...)
	}
	var packed bytes.Buffer
	fw, err := flate.NewWriter(&packed, flate.BestCompression)
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
	got, err := decodeRunResponse(bytes.NewReader(frame), maxUploadBytes, nil)
	if err != nil || got.Held {
		t.Fatalf("decodeRunResponse: %+v, %v", got, err)
	}
	if !reflect.DeepEqual(got.Out, want.Out) || !reflect.DeepEqual(got.Materialized, want.Materialized) {
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
	if gotShard, err := decodeRunResponse(bytes.NewReader(shardFrame), maxUploadBytes, nil); err != nil || !reflect.DeepEqual(gotShard.Metrics, withShard.Metrics) {
		t.Errorf("metrics shard after the round trip: %+v (%v)", gotShard, err)
	}
	var a, b bytes.Buffer
	want.Observed.WriteTo(&a)
	got.Observed.WriteTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("statistics shard differs after the round trip")
	}
	// A held block's frame has everything but the output.
	gotHeld, err := decodeRunResponse(bytes.NewReader(responseFrame(t, heldBlock(t))), maxUploadBytes, nil)
	if err != nil || !gotHeld.Held || gotHeld.Out != nil || !reflect.DeepEqual(gotHeld.Materialized, want.Materialized) || gotHeld.Rows != want.Rows || gotHeld.Observed.Len() != want.Observed.Len() {
		t.Errorf("held response after the round trip: %+v (%v)", gotHeld, err)
	}

	// The session's statistics are the run's; a request carries its block's,
	// and names every upstream output by key, by ascending block.
	block3 := stats.NewCard(stats.BlockSE(3, 1))
	base := &workerRunRequest{WF: 8, Scale: 0.5, Instrument: true, Observe: []stats.Stat{stats.NewCard(stats.BlockSE(1, 3)), block3}}
	k0, k2 := digest(sha256.Sum256([]byte("block 0"))), digest(sha256.Sum256([]byte("block 2")))
	named := []residentRef{{0, k0.String()}, {2, k2.String()}}
	reqFrame, key, err := encodeRunRequest(base, 3, false, named, maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRunRequest(bytes.NewReader(reqFrame), maxUploadBytes)
	if err != nil {
		t.Fatalf("decodeRunRequest: %v", err)
	}
	if req.Block != 3 || req.WF != 8 || req.Hold || !reflect.DeepEqual(req.Resident, named) || !reflect.DeepEqual(req.Observe, []stats.Stat{block3}) {
		t.Errorf("request header = %+v", req)
	}
	// Both ends key the request by the SHA-256 of its payload, which is
	// its header and nothing else.
	if sections := frameSections(t, reqFrame); len(sections) != 1 {
		t.Errorf("the request has %d sections after its header", len(sections)-1)
	}
	if _, payload := framePayload(t, reqFrame); key != sha256.Sum256(payload) || req.key != key {
		t.Errorf("request key: read %s, written %s, want the payload's %x", req.key, key, sha256.Sum256(payload))
	}
	// A held request says so, and is another request.
	heldFrame, heldKey, err := encodeRunRequest(base, 3, true, named, maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	req, err = decodeRunRequest(bytes.NewReader(heldFrame), maxUploadBytes)
	if err != nil {
		t.Fatalf("decodeRunRequest, held: %v", err)
	}
	if !req.Hold || req.key != heldKey || heldKey == key {
		t.Errorf("held request: header %+v, key %s, written %s; the unheld request's %s", req, req.key, heldKey, key)
	}
	if base.Block != 0 || base.Resident != nil || base.Hold || len(base.Observe) != 2 {
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
// run's two that its block observes. The response's tables are late sections (data.WriteLate) of one
// plain group each: they name no relation.
func TestRunFramesGoldenBytes(t *testing.T) {
	const (
		goldenRequest  = "ef017b227766223a382c227363616c65223a302e352c226d61785f726f7773223a313030302c226661756c7473223a22736565643d372c726174653d312c7472616e7369656e743d31222c22637373223a7b22556e696f6e4469766973696f6e223a747275657d2c22696e737472756d656e74223a747275652c226f627365727665223a5b7b224b696e64223a302c22546172676574223a7b22426c6f636b223a332c22536574223a312c224465707468223a2d312c2252656a656374496e707574223a2d312c2252656a65637445646765223a2d317d2c224174747273223a6e756c6c7d5d2c22626c6f636b223a337d"
		goldenResponse = "c3017b226d6174657269616c697a6564223a5b226175646974222c2272656a65637473225d2c22726f7773223a372c226465677261646564223a5b7b2273746174223a7b224b696e64223a302c22546172676574223a7b22426c6f636b223a302c22536574223a312c224465707468223a2d312c2252656a656374496e707574223a2d312c2252656a65637445646765223a2d317d2c224174747273223a6e756c6c7d2c22657272223a22746170206661696c6564227d5d2c2272657472696573223a327d284554424c3502034f757402034f7574016b034f7574017602010000000102020401010102040401011e4554424c350205617564697402056175646974016b056175646974017600304554424c35020772656a65637473020772656a65637473016b0772656a65637473017601010000000101120101011201"

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
	if rb, err := decodeRunResponse(bytes.NewReader(resp), maxUploadBytes, nil); err != nil || !reflect.DeepEqual(rb.Out, frameBlock(t).Out) {
		t.Errorf("response frame does not decode to what built it: %v", err)
	}
}

// TestRunFrameStoredMode: a frame DEFLATE cannot shrink travels as it is.
func TestRunFrameStoredMode(t *testing.T) {
	frame := mustFrame(t, map[string]int{"wf": 6, "block": 1})
	mode, payload := framePayload(t, frame)
	if mode != frameStored || len(frame) != len(frameMagic)+2+len(payload) {
		t.Fatalf("a %d-byte payload travels in mode %d as %d bytes", len(payload), mode, len(frame))
	}
	req, err := decodeRunRequest(bytes.NewReader(frame), maxUploadBytes)
	if err != nil || req.WF != 6 || req.Block != 1 {
		t.Fatalf("stored frame: %+v, %v", req, err)
	}
	// The same payload deflated is a frame too, but not the writer's.
	if _, err := decodeRunRequest(bytes.NewReader(sealedFrame(t, frameDeflate, uint64(len(payload)), payload)), maxUploadBytes); err != nil {
		t.Errorf("deflated twin of a stored frame: %v", err)
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
			decodeRunResponse(bytes.NewReader(tc.frame), limit, nil) // warm the pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeRunResponse(bytes.NewReader(tc.frame), limit, nil)
			runtime.ReadMemStats(&after)
			if err == nil || errors.Is(err, errFrameCap) != tc.capped {
				t.Errorf("mode %d, %s: err = %v, want errFrameCap %v", mode, name, err, tc.capped)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= limit/2 {
				t.Errorf("mode %d, %s: refusing the frame allocated %d bytes", mode, name, got)
			}
		}
	}
	if _, err := decodeRunResponse(bytes.NewReader(honest), limit+int64(len(payload)), nil); errors.Is(err, errFrameCap) {
		t.Errorf("a frame under the cap was refused for its size: %v", err)
	}
	if _, err := encodeRunResponse(frameBlock(t), 64); !errors.Is(err, errFrameCap) {
		t.Errorf("writing a frame over the cap: err = %v, want errFrameCap", err)
	}
}

func TestRunFrameRejectsCorruption(t *testing.T) {
	decode := func(frame []byte) error {
		_, err := decodeRunResponse(bytes.NewReader(frame), maxUploadBytes, nil)
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
	if err := decode(mustFrame(t, map[string]int{"rows": 1, "bogus": 2})); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown header field: err = %v", err)
	}
	// The formats this one replaced are refused by name, not as noise.
	old := append([]byte("EBLK1"), deflated[len(frameMagic):]...)
	if err := decode(old); err == nil || !strings.Contains(err.Error(), `starts "EBLK1"`) {
		t.Errorf("a frame of the previous version: err = %v", err)
	}
}

// TestWorkerRefusesMalformedFrames pins the worker's answer to bodies that
// are not a request frame: 400 with a JSON error, never a panic or a 5xx.
func TestWorkerRefusesMalformedFrames(t *testing.T) {
	h := NewWorker().Handler()
	stored := requestFrame(t, &workerRunRequest{WF: 6, Scale: distScale}, 0)
	mode, payload := framePayload(t, stored)
	if mode != frameStored {
		t.Fatalf("the fixture request travels in mode %d", mode)
	}
	deflated := sealedFrame(t, frameDeflate, uint64(len(payload)), payload)
	legacy, _ := json.Marshal(map[string]any{"wf": 6, "scale": distScale, "block": 0})
	ref := digest(sha256.Sum256(nil)).String()
	var table bytes.Buffer
	if err := data.WriteTable(&table, frameTable("B0", data.Row{1, 2})); err != nil {
		t.Fatal(err)
	}
	header := &workerRunRequest{WF: 6, Scale: distScale}
	for name, body := range map[string][]byte{
		"empty":              nil,
		"json":               legacy,
		"truncated stored":   stored[:len(stored)-1],
		"trailing stored":    append(append([]byte{}, stored...), 0),
		"truncated deflated": deflated[:len(deflated)-1],
		"trailing deflated":  append(append([]byte{}, deflated...), 0),
		// A request is its header: it names upstream outputs, never
		// carries them.
		"upstream field":                 mustFrame(t, map[string]any{"wf": 6, "scale": distScale, "block": 1, "upstream": []int{0}}),
		"table after the header":         mustFrame(t, header, table.Bytes()),
		"empty section after the header": mustFrame(t, header, nil),
		// The row interpreters are gone from the product; a peer still asking
		// for one must be refused, not silently run columnar.
		"row_mode": mustFrame(t, map[string]any{"wf": 6, "scale": distScale, "block": 0, "row_mode": true}),
		// Resident refs no store could answer, whatever it holds.
		"short digest":     residentFrame(t, residentRef{0, ref[:63]}),
		"uppercase digest": residentFrame(t, residentRef{0, strings.ToUpper(ref)}),
		"non-hex digest":   residentFrame(t, residentRef{0, strings.Repeat("g", 64)}),
		"duplicate ref":    residentFrame(t, residentRef{0, ref}, residentRef{0, ref}),
		// A hold flag that is not one, and a held response sent as a request.
		"hold not a bool": mustFrame(t, map[string]any{"wf": 6, "scale": distScale, "block": 0, "hold": "yes"}),
		"held response":   responseFrame(t, heldBlock(t)),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/run", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s: status %d, body %q", name, rec.Code, rec.Body.String())
		}
	}
}

// heldBlock is frameBlock with its output held.
func heldBlock(t testing.TB) *engine.RemoteBlock {
	rb := frameBlock(t)
	rb.Out, rb.LateOut = nil, nil
	return rb
}

// residentFrame is a request for block 1 of wf07 that names the given refs.
func residentFrame(t testing.TB, refs ...residentRef) []byte {
	t.Helper()
	return mustFrame(t, &workerRunRequest{WF: 7, Scale: distScale, Block: 1, Resident: refs})
}

// TestWorkerResidentOutputs drives the store through a worker's handler: a
// request that says Hold leaves the block's output here, under the request's
// key, and answers without it; a request that names that key gets, byte for
// byte, the response an in-process RunBlockCtx of the same block over the
// same late output makes; and one that names a key the store lacks gets a
// 409 listing it.
func TestWorkerResidentOutputs(t *testing.T) {
	wk := NewWorker()
	h := wk.Handler()
	post := func(frame []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/run", bytes.NewReader(frame)))
		return rec
	}
	w := suite.MustGet(7)
	p := core.NewPlan(w.Graph, w.Catalog, css.DefaultOptions())
	sel, err := p.Selection(selector.MethodExact)
	if err != nil {
		t.Fatal(err)
	}
	base := &workerRunRequest{WF: 7, Scale: distScale, CSS: css.DefaultOptions(), Instrument: true, Observe: sel.Observe}
	db := w.Data(distScale)
	sent := post(requestFrame(t, base, 0))
	out, err := decodeRunResponse(sent.Body, maxUploadBytes, db)
	if sent.Code != http.StatusOK || err != nil || out.Held || len(wk.resident.byKey) != 0 {
		t.Fatalf("block 0: status %d, response %+v, %d output(s) kept, %v", sent.Code, out, len(wk.resident.byKey), err)
	}
	hold, key, err := encodeRunRequest(base, 0, true, nil, maxUploadBytes)
	if err != nil {
		t.Fatal(err)
	}
	answer := post(hold)
	rb, err := decodeRunResponse(answer.Body, maxUploadBytes, db)
	if err != nil || answer.Code != http.StatusOK || !rb.Held || rb.Out != nil || rb.Rows != out.Rows || !held(&wk.resident, key) {
		t.Fatalf("block 0 held: status %d, response %+v (want rows %d), kept under its key %v; %v",
			answer.Code, rb, out.Rows, held(&wk.resident, key), err)
	}
	named := post(requestFrame(t, base, 1, residentRef{0, key.String()}))
	if named.Code != http.StatusOK {
		t.Fatalf("block 1: status %d: %s", named.Code, named.Body.Bytes())
	}

	// The same two blocks in-process, block 1 reading block 0's late output.
	an, err := p.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.CSS()
	if err != nil {
		t.Fatal(err)
	}
	local := engine.New(an, db, nil)
	b0, err := local.RunBlockCtx(context.Background(), 0, nil, res, sel.Observe, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := local.RunBlockCtx(context.Background(), 1, nil, res, sel.Observe, map[int]*data.Late{0: b0.LateOut})
	if err != nil {
		t.Fatal(err)
	}
	if want := responseFrame(t, b1); !bytes.Equal(named.Body.Bytes(), want) {
		t.Errorf("block 1: the named response (%d bytes) is not the in-process block's (%d bytes)", named.Body.Len(), len(want))
	}
	if fromNamed, err := decodeRunResponse(named.Body, maxUploadBytes, db); err != nil || fromNamed.Out == nil || fromNamed.Observed.Len() == 0 {
		t.Errorf("block 1: the named response decodes to %+v, %v", fromNamed, err)
	}
	if n := len(wk.resident.byKey); n != 1 {
		t.Errorf("the store holds %d output(s); only the held request's is kept", n)
	}

	unknown := digest(sha256.Sum256([]byte("never produced")))
	miss := post(requestFrame(t, base, 1, residentRef{0, unknown.String()}))
	var body missingResident
	if err := json.Unmarshal(miss.Body.Bytes(), &body); miss.Code != http.StatusConflict || err != nil ||
		body.Error == "" || !reflect.DeepEqual(body.Missing, []string{unknown.String()}) {
		t.Errorf("unknown key: status %d, body %s", miss.Code, miss.Body.Bytes())
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

// frameDB is the data the hostile late sections below name: relation S of
// two rows.
var frameDB = engine.DB{"S": frameTable("S", data.Row{1, 2}, data.Row{3, 4})}

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

// lateResponse seals a response frame whose output is the given section,
// from a block that read S's two rows.
func lateResponse(t testing.TB, section []byte) []byte {
	return sourcesResponse(t, map[string]int{"S": 2}, section)
}

// sourcesResponse seals a response frame whose header says the block read
// the given sources, and whose output is the given section.
func sourcesResponse(t testing.TB, sources map[string]int, section []byte) []byte {
	t.Helper()
	f, err := beginFrame(&workerRunResponse{Rows: 1, Sources: sources})
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
	{"chain over no earlier column", lateSection("S", 2, 2, 4, 0, 0, 2), false, "cannot chain column 0"},
}

// TestRunFrameRefusesHostileLateTables decodes response frames whose output
// names rows the coordinator does not hold, or is malformed around its row
// index, or whose block read other data: each is refused with its own
// error, never a panic, and a name, an index or a source the data cannot
// resolve is data.ErrUnresolved.
func TestRunFrameRefusesHostileLateTables(t *testing.T) {
	for _, c := range hostileLate {
		rb, err := decodeRunResponse(bytes.NewReader(lateResponse(t, c.section)), maxUploadBytes, frameDB)
		if c.refusal == "" {
			if err != nil || !reflect.DeepEqual(rb.Out.Rows, []data.Row{{1}, {3}}) {
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
		_, err := decodeRunResponse(bytes.NewReader(sourcesResponse(t, declared, honest)), maxUploadBytes, frameDB)
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
	req := requestFrame(f, &workerRunRequest{WF: 8, Scale: 0.5, Instrument: true}, 3,
		residentRef{0, digest(sha256.Sum256(nil)).String()}, residentRef{2, digest(sha256.Sum256([]byte("block 2"))).String()})
	f.Add(resp)
	f.Add(req)
	f.Add(mustFrame(f, map[string]int{"wf": 6})) // stored
	f.Add(sealedFrame(f, frameStored, uint64(len(payload)), payload))
	f.Add(sealedFrame(f, frameDeflate, uint64(len(payload)), append(payload[:len(payload):len(payload)], make([]byte, 1<<20)...)))
	f.Add(sealedFrame(f, frameDeflate, 1<<40, nil))
	for n := 0; n < len(req); n += 7 {
		f.Add(req[:n])
	}
	held, _, err := encodeRunRequest(&workerRunRequest{WF: 8, Scale: 0.5}, 1, true,
		[]residentRef{{0, digest(sha256.Sum256(nil)).String()}}, maxUploadBytes)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(held)
	f.Add(responseFrame(f, heldBlock(f)))
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
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeRunRequest(bytes.NewReader(in), limit)
		decodeRunResponse(bytes.NewReader(in), limit, frameDB)
		runtime.ReadMemStats(&after)
		// 40 bytes a cell of a table of the cap's cells, twice, and the
		// codec's fixed scratch: a bomb would be hundreds of megabytes.
		if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
			t.Fatalf("decoding %d bytes under a cap of %d allocated %d", len(in), limit, got)
		}
	})
}
