package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
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
