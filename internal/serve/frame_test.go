package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// frameTable builds a small table named rel.
func frameTable(rel string, rows ...data.Row) *data.Table {
	return &data.Table{Rel: rel, Attrs: []workflow.Attr{{Rel: rel, Col: "k"}, {Rel: rel, Col: "v"}}, Rows: rows}
}

// frameBlock is a block outcome that fills every part of a response frame.
func frameBlock(t *testing.T) *engine.RemoteBlock {
	return &engine.RemoteBlock{
		Out: frameTable("Out", data.Row{1, 2}, data.Row{3, 4}),
		Materialized: map[string]*data.Table{
			"rejects": frameTable("rejects", data.Row{9, 9}),
			"audit":   frameTable("audit"),
		},
		Rows:     7,
		Observed: scalarStore(t, 40),
		Degraded: []engine.FailedStat{{Stat: stats.NewCard(stats.BlockSE(0, 1)), Err: errors.New("tap failed")}},
		Retries:  2,
	}
}

func TestRunFramesRoundTrip(t *testing.T) {
	want := frameBlock(t)
	frame, err := encodeRunResponse(want)
	if err != nil {
		t.Fatal(err)
	}
	again, err := encodeRunResponse(frameBlock(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatal("the same block built two different response frames")
	}
	got, err := decodeRunResponse(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("decodeRunResponse: %v", err)
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
	shardFrame, err := encodeRunResponse(withShard)
	if err != nil {
		t.Fatal(err)
	}
	if gotShard, err := decodeRunResponse(bytes.NewReader(shardFrame)); err != nil || !reflect.DeepEqual(gotShard.Metrics, withShard.Metrics) {
		t.Errorf("metrics shard after the round trip: %+v (%v)", gotShard, err)
	}
	var a, b bytes.Buffer
	want.Observed.WriteTo(&a)
	got.Observed.WriteTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("statistics shard differs after the round trip")
	}

	base := &WorkerRunRequest{WF: 8, Scale: 0.5, Instrument: true, Observe: []stats.Stat{stats.NewCard(stats.BlockSE(1, 3))}}
	upstream := map[int]*data.Table{2: frameTable("B2", data.Row{5, 6}), 0: frameTable("B0")}
	reqFrame, err := encodeRunRequest(base, 3, upstream)
	if err != nil {
		t.Fatal(err)
	}
	req, gotUp, err := decodeRunRequest(bytes.NewReader(reqFrame))
	if err != nil {
		t.Fatalf("decodeRunRequest: %v", err)
	}
	if req.Block != 3 || req.WF != 8 || !reflect.DeepEqual(req.Upstream, []int{0, 2}) || !reflect.DeepEqual(req.Observe, base.Observe) {
		t.Errorf("request header = %+v", req)
	}
	if !reflect.DeepEqual(gotUp, upstream) {
		t.Error("upstream tables differ after the round trip")
	}
	if base.Block != 0 || base.Upstream != nil {
		t.Error("encodeRunRequest modified the session's base request")
	}
}

// TestRunFramesGoldenBytes pins the wire: a run without metrics builds, for
// every knob a worker mirrors, the frames the format has always had — only
// who fills the request changed (the engine's DispatchSpec, not RunSpec) and
// the metrics shard is absent from both headers unless asked for.
func TestRunFramesGoldenBytes(t *testing.T) {
	const (
		goldenRequest  = "45424c4b31f8027b227766223a382c227363616c65223a302e352c2273747265616d696e67223a747275652c22776f726b657273223a322c226d61785f726f7773223a313030302c226661756c7473223a22736565643d372c726174653d312c7472616e7369656e743d31222c2272657472795f6d6178223a322c2272657472795f6261636b6f66665f6e73223a353030302c22637373223a7b22556e696f6e4469766973696f6e223a747275652c2243726f7373426c6f636b223a747275652c22464b53686f7274637574223a747275657d2c22696e737472756d656e74223a747275652c22616e795f706f696e74223a747275652c226f627365727665223a5b7b224b696e64223a302c22546172676574223a7b22426c6f636b223a312c22536574223a332c224465707468223a2d312c2252656a656374496e707574223a2d312c2252656a65637445646765223a2d317d2c224174747273223a6e756c6c7d5d2c22626c6f636b223a332c22757073747265616d223a5b302c325d7d154554424c320102423002024230016b024230017600194554424c320102423202024232016b024232017601000a000c"
		goldenResponse = "45424c4b31c3017b226d6174657269616c697a6564223a5b226175646974222c2272656a65637473225d2c22726f7773223a372c226465677261646564223a5b7b2273746174223a7b224b696e64223a302c22546172676574223a7b22426c6f636b223a302c22536574223a312c224465707468223a2d312c2252656a656374496e707574223a2d312c2252656a65637445646765223a2d317d2c224174747273223a6e756c6c7d2c22657272223a22746170206661696c6564227d5d2c2272657472696573223a327d1e4554424c3201034f757402034f7574016b034f75740176020002060004081e4554424c320105617564697402056175646974016b056175646974017600284554424c32010772656a65637473020772656a65637473016b0772656a6563747301760100120012c90145544c5354415402000000020000000000000000000000000100000000000000ffffffffffffffffffffffffffffffffffffffffffffffff00000028000000000000000200000000000000000100000000000000ffffffffffffffffffffffffffffffffffffffffffffffff010001005401006101050000000100000000000000010000000000000002000000000000000100000000000000030000000000000001000000000000000400000000000000010000000000000005000000000000000100000000000000"
	)
	// The request a session builds from RunSpec + DispatchSpec.
	coord, err := NewCoordinator(RunSpec{WF: 8, Scale: 0.5, MaxRows: 1000, CSS: css.DefaultOptions()}, CoordinatorOptions{Addrs: []string{"http://127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	spec := &engine.DispatchSpec{
		Instrument: true, AnyPoint: true, Observe: []stats.Stat{stats.NewCard(stats.BlockSE(1, 3))},
		Streaming: true, Workers: 2, Faults: "seed=7,rate=1,transient=1", RetryMax: 2, RetryBackoff: 5000,
	}
	req, err := encodeRunRequest(coord.baseRequest(spec), 3, map[int]*data.Table{2: frameTable("B2", data.Row{5, 6}), 0: frameTable("B0")})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(req); got != goldenRequest {
		t.Errorf("request frame changed on the wire:\n got %s\nwant %s", got, goldenRequest)
	}
	resp, err := encodeRunResponse(frameBlock(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(resp); got != goldenResponse {
		t.Errorf("response frame changed on the wire:\n got %s\nwant %s", got, goldenResponse)
	}
}

func TestRunFrameRejectsCorruption(t *testing.T) {
	frame, err := encodeRunResponse(frameBlock(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := decodeRunResponse(bytes.NewReader(frame[:n])); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes decoded without error", n, len(frame))
		}
	}
	if _, err := decodeRunResponse(bytes.NewReader(append(append([]byte{}, frame...), 0))); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte{}, frame...)
	bad[0] ^= 0xff
	if _, err := decodeRunResponse(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	unknown, err := beginFrame(map[string]int{"rows": 1, "bogus": 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRunResponse(bytes.NewReader(unknown)); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown header field: err = %v", err)
	}
}

// TestWorkerRefusesMalformedFrames pins the worker's answer to bodies that
// are not a request frame: 400 with a JSON error, never a panic or a 5xx.
func TestWorkerRefusesMalformedFrames(t *testing.T) {
	h := NewWorker().Handler()
	good, err := encodeRunRequest(&WorkerRunRequest{WF: 6, Scale: distScale}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy, _ := json.Marshal(map[string]any{"wf": 6, "scale": distScale, "block": 0})
	for name, body := range map[string][]byte{
		"empty":          nil,
		"json":           legacy,
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte{}, good...), 0),
		"missing tables": mustFrame(t, &WorkerRunRequest{WF: 6, Scale: distScale, Upstream: []int{0}}),
		// The row interpreters are gone from the product; a peer still asking
		// for one must be refused, not silently run columnar.
		"row_mode": mustFrame(t, map[string]any{"wf": 6, "scale": distScale, "block": 0, "row_mode": true}),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/run", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%s: status %d, body %q", name, rec.Code, rec.Body.String())
		}
	}
}

func mustFrame(t *testing.T, header any) []byte {
	t.Helper()
	frame, err := beginFrame(header)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}
