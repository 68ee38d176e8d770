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
)

// block0 is the request frame for the first block of a suite workflow, and
// postFrame the status the worker answers a frame with.
func block0(t *testing.T, wf int) []byte {
	return requestFrame(t, &workerRunRequest{WF: wf, Scale: distScale, Instrument: true}, 0)
}

func postFrame(h http.Handler, frame []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/worker/run", bytes.NewReader(frame)))
	return rec.Code
}

// TestWorkerColdStartDoesNotBlockOthers dispatches the first blocks of two
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

	slowFrame, fastFrame := block0(t, slowWF), block0(t, fastWF)
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
	if code := postFrame(h, block0(t, 1)); code != http.StatusOK {
		t.Errorf("a valid block after the refusals: status %d", code)
	}
}
