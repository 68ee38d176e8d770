package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// chain0 is the request frame for the first chain (engine.Chains) of a
// suite workflow at scale, and postFrame the status the worker answers a
// frame with.
func chain0(t *testing.T, wf int, scale float64) []byte {
	w := suite.MustGet(wf)
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	return requestFrame(t, &workerRunRequest{WF: wf, Scale: scale, Instrument: true}, engine.Chains(an)[0]...)
}

func postFrame(h http.Handler, frame []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/run", bytes.NewReader(frame)))
	return rec.Code
}

// TestWorkerColdStartDoesNotBlockOthers dispatches the first chains of two
// workflows to one worker while the first one's data is still being
// generated: its own block waits for it, the other workflow's does not (it
// did, for as long as the generation took, when one lock covered both the
// table of states and the building of each).
func TestWorkerColdStartDoesNotBlockOthers(t *testing.T) {
	const slowWF, fastWF = 8, 6
	wk := NewWorker()
	h := wk.Handler()

	// Play the slow workflow's first request up to the middle of its build.
	entered, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		wk.states.get(workerKey{wf: slowWF, scale: distScale}, func() (*workerState, error) {
			builds.Add(1)
			close(entered)
			<-release
			return newWorkerState(slowWF, distScale)
		})
	}()
	<-entered

	slowFrame, fastFrame := chain0(t, slowWF, distScale), chain0(t, fastWF, distScale)
	slow, fast := make(chan int, 1), make(chan int, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		slow <- postFrame(h, slowFrame)
	}()
	go func() {
		defer wg.Done()
		fast <- postFrame(h, fastFrame)
	}()
	select {
	case code := <-fast:
		if code != http.StatusOK {
			t.Errorf("the other workflow's block: status %d", code)
		}
	case code := <-slow:
		t.Errorf("a block ran (status %d) before its workflow's data existed", code)
	case <-time.After(30 * time.Second):
		t.Error("a block of one workflow waited for another workflow's cold start")
	}
	close(release)
	if code := <-slow; code != http.StatusOK {
		t.Errorf("the cold workflow's block, once its data existed: status %d", code)
	}
	if builds.Load() != 1 {
		t.Errorf("the cold workflow's state was built %d times", builds.Load())
	}
}

// TestOnceMap: concurrent callers of one key share one build, and a failed
// build is not kept.
func TestOnceMap(t *testing.T) {
	var m onceMap[string, int]
	var builds atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.get("k", func() (int, error) { return int(builds.Add(1)) + 41, nil }); v != 42 || err != nil {
				t.Errorf("get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("%d builds of one key", builds.Load())
	}
	boom := errors.New("boom")
	if _, err := m.get("bad", func() (int, error) { return 0, boom }); err != boom {
		t.Errorf("failed build: err = %v", err)
	}
	if v, err := m.get("bad", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Errorf("build after a failed one = %d, %v", v, err)
	}
}

// TestWorkerRefusesScaleOutOfRange: a scale outside (0, 1] is refused with
// a 400 that names it, before any data is generated for it, and the same
// worker then serves a valid block. A scale of 1e12 once panicked inside
// the data generator and left its cache entry nil.
func TestWorkerRefusesScaleOutOfRange(t *testing.T) {
	wk := NewWorker()
	h := wk.Handler()
	for _, scale := range []float64{1e12, -1, 0} {
		frame := requestFrame(t, &workerRunRequest{WF: 1, Scale: scale}, 0)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/run", bytes.NewReader(frame)))
		if want := fmt.Sprintf("scale %v outside (0, 1]", scale); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("scale %v: status %d, %s; want 400 naming %q", scale, rec.Code, rec.Body, want)
		}
	}
	if n := len(wk.states.m); n != 0 {
		t.Errorf("%d dataset(s) built for refused scales", n)
	}
	if code := postFrame(h, chain0(t, 1, distScale)); code != http.StatusOK {
		t.Errorf("a valid block after the refusals: status %d", code)
	}
}

// TestOnceMapBounded: with max set, a onceMap keeps the max keys most
// recently asked for, and a dropped key is built again when asked for.
func TestOnceMapBounded(t *testing.T) {
	m := onceMap[string, int]{max: 2}
	builds := map[string]int{}
	get := func(k string) {
		if v, err := m.get(k, func() (int, error) { builds[k]++; return len(k), nil }); v != len(k) || err != nil {
			t.Errorf("get(%q) = %d, %v", k, v, err)
		}
	}
	for _, k := range []string{"a", "bb", "a", "ccc"} { // "bb" is the least recently used
		get(k)
	}
	if _, kept := m.m["bb"]; kept || len(m.m) != 2 || m.order.Len() != 2 {
		t.Errorf("kept %v (order %d), want a and ccc", m.m, m.order.Len())
	}
	get("bb")
	get("a")
	if builds["bb"] != 2 || builds["a"] != 2 || builds["ccc"] != 1 {
		t.Errorf("builds %v: bb and then a were dropped, ccc never", builds)
	}
	// Eight callers over more keys than it keeps: every one gets its own
	// key's value, and the bound holds once they are done.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := strings.Repeat("k", 1+(g+i)%5)
				if v, err := m.get(k, func() (int, error) { return len(k), nil }); v != len(k) || err != nil {
					t.Errorf("get(%q) = %d, %v", k, v, err)
				}
			}
		}()
	}
	wg.Wait()
	if len(m.m) != 2 || m.order.Len() != 2 {
		t.Errorf("after concurrent callers: %d kept (order %d), bound 2", len(m.m), m.order.Len())
	}
	get("a")
	boom := errors.New("boom")
	if _, err := m.get("bad", func() (int, error) { return 0, boom }); err != boom || len(m.m) != 2 || m.order.Len() != 2 || m.m["a"] == nil {
		t.Errorf("a failed build: err %v, kept %v (order %d); it drops no other key", err, m.m, m.order.Len())
	}
}

// TestWorkerDatasetsBounded runs wf06's chain at more scales than a
// worker keeps datasets: it keeps at most workerDatasets of them, and the
// first scale's chain, whose dataset was dropped, answers byte for byte as
// it did before.
func TestWorkerDatasetsBounded(t *testing.T) {
	wk := NewWorker()
	h := wk.Handler()
	run := func(scale float64) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/run", bytes.NewReader(
			chain0(t, 6, scale))))
		if rec.Code != http.StatusOK {
			t.Fatalf("scale %v: status %d: %s", scale, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	first := run(distScale)
	for i := 1; i <= 2*workerDatasets; i++ {
		run(distScale * (1 + float64(i)/64))
		if n := len(wk.states.m); n > workerDatasets {
			t.Fatalf("%d datasets kept after %d scales, bound %d", n, i+1, workerDatasets)
		}
	}
	if _, kept := wk.states.m[workerKey{wf: 6, scale: distScale}]; kept {
		t.Fatal("the least recently used dataset was kept")
	}
	if again := run(distScale); !bytes.Equal(again, first) {
		t.Errorf("the block over its regenerated dataset answered %d bytes, first %d, and they differ", len(again), len(first))
	}
}
