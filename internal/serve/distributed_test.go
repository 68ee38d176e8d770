package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// The golden distributed-equivalence suite: a distributed run must be
// byte-identical to a single-process run — sinks, materialized outputs,
// observed statistics, work metric — whatever the fault pattern: a worker
// SIGKILLed mid-run, requests dropped, delayed or cut short by a
// deterministic transport, a frozen worker whose lease expires, or every
// worker lost (which must complete in-process from the committed blocks,
// never partially).

const distScale = 0.002

// distWorkflows are the multi-block suite workflows the golden tests
// exercise (2, 3 and 2 blocks — enough for real scheduling, reassignment
// and the in-process fallback, without join explosions that would dwarf
// the wire cap).
var distWorkflows = []int{6, 8, 15}

// startWorker serves a fresh Worker over httptest.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker().Handler())
	t.Cleanup(srv.Close)
	return srv
}

// killSwitch makes a worker's first block-run request its last act,
// emulating a worker SIGKILLed mid-run: completed work was already
// delivered, every later connection is refused. The listener closes before
// the block runs and the response closes its connection, so the refusal is
// in place by the time the coordinator holds the block — a kill that raced
// the response let a fast coordinator hand the dying worker one more block.
type killSwitch struct {
	once sync.Once
	srv  *httptest.Server
}

func (k *killSwitch) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fatal := false
		if r.URL.Path == "/v1/worker/run" {
			k.once.Do(func() { fatal = true })
		}
		if fatal {
			k.srv.Listener.Close()
			w.Header().Set("Connection", "close")
		}
		h.ServeHTTP(w, r)
		if fatal {
			// On the wire before the connections close: the kill must not
			// take back the block it follows.
			w.(http.Flusher).Flush()
			go func() {
				k.srv.CloseClientConnections()
				k.srv.Close()
			}()
		}
	})
}

// startKillableWorker serves a Worker that dies after its first completed
// block.
func startKillableWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ks := &killSwitch{}
	srv := httptest.NewServer(ks.wrap(NewWorker().Handler()))
	ks.srv = srv
	t.Cleanup(srv.Close)
	return srv
}

// startFreezableWorker serves a Worker that freezes — run and health
// requests hang — after its first completed block: the hung-worker case
// only lease expiry can detect.
func startFreezableWorker(t *testing.T) *httptest.Server {
	t.Helper()
	wk := NewWorker()
	var once sync.Once
	frozen := make(chan struct{})
	release := make(chan struct{})
	h := wk.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-frozen:
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		default:
		}
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/worker/run" {
			once.Do(func() { close(frozen) })
		}
	}))
	t.Cleanup(func() {
		close(release)
		srv.Close()
	})
	return srv
}

// distConfig builds a run configuration dispatching to the given workers.
func distConfig(t *testing.T, wf int, addrs []string, tune func(*CoordinatorOptions)) core.Config {
	t.Helper()
	return dispatched(t, core.DefaultConfig(), wf, addrs, tune)
}

// dispatched returns cfg with a coordinator over the given workers as its
// dispatcher. The coordinator is told only what the engine cannot know;
// whatever else cfg sets reaches the workers through the engine.
func dispatched(t *testing.T, cfg core.Config, wf int, addrs []string, tune func(*CoordinatorOptions)) core.Config {
	t.Helper()
	opt := CoordinatorOptions{Addrs: addrs}
	if tune != nil {
		tune(&opt)
	}
	coord, err := NewCoordinator(RunSpec{WF: wf, Scale: distScale, MaxRows: cfg.MaxRows, CSS: cfg.CSS}, opt)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	cfg.Dispatcher = coord
	return cfg
}

// tryCycle executes one optimization cycle over the suite workflow.
func tryCycle(t *testing.T, wf int, cfg core.Config) (*core.Cycle, error) {
	t.Helper()
	w, err := suite.Get(wf)
	if err != nil {
		t.Fatalf("suite.Get(%d): %v", wf, err)
	}
	return core.RunCtx(context.Background(), w.Graph, w.Catalog, w.Data(distScale), cfg)
}

// cycleOf is tryCycle for runs that must succeed.
func cycleOf(t *testing.T, wf int, cfg core.Config) *core.Cycle {
	t.Helper()
	cy, err := tryCycle(t, wf, cfg)
	if err != nil {
		t.Fatalf("wf%02d run: %v", wf, err)
	}
	return cy
}

// runCycleOf executes one optimization cycle and returns its instrumented
// run.
func runCycleOf(t *testing.T, wf int, cfg core.Config) *engine.Result {
	t.Helper()
	return cycleOf(t, wf, cfg).Observed
}

// treesOf renders per-block join trees in block order (nil = initial).
func treesOf(cy *core.Cycle, trees map[int]*workflow.JoinTree) string {
	var sb strings.Builder
	for bi, blk := range cy.Analysis.Blocks {
		tree := trees[bi]
		if tree == nil {
			tree = blk.Initial
		}
		if tree != nil {
			fmt.Fprintf(&sb, "%d: %s\n", bi, tree.Render(blk))
		}
	}
	return sb.String()
}

// eachDistLeg runs fn over the golden workflows.
func eachDistLeg(t *testing.T, fn func(t *testing.T, wf int)) {
	for _, wf := range distWorkflows {
		t.Run("batch/wf"+itoa2(wf), func(t *testing.T) { fn(t, wf) })
	}
}

// localRun is the single-process reference execution.
func localRun(t *testing.T, wf int) *engine.Result {
	t.Helper()
	return runCycleOf(t, wf, core.DefaultConfig())
}

// storeBytes renders an observed store into its canonical v2 byte form.
func storeBytes(t *testing.T, r *engine.Result) []byte {
	t.Helper()
	if r.Observed == nil {
		return nil
	}
	var buf bytes.Buffer
	if _, err := r.Observed.WriteTo(&buf); err != nil {
		t.Fatalf("store WriteTo: %v", err)
	}
	return buf.Bytes()
}

// assertRunsEqual is the golden comparison: sinks, materialized outputs,
// observed statistics (byte-level) and the work metric must match exactly.
func assertRunsEqual(t *testing.T, name string, want, got *engine.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Sinks, got.Sinks) {
		t.Errorf("%s: sinks differ", name)
	}
	if !reflect.DeepEqual(want.Materialized, got.Materialized) {
		t.Errorf("%s: materialized outputs differ", name)
	}
	if want.Rows != got.Rows {
		t.Errorf("%s: work metric differs: want %d rows, got %d", name, want.Rows, got.Rows)
	}
	if !bytes.Equal(storeBytes(t, want), storeBytes(t, got)) {
		t.Errorf("%s: observed statistics bytes differ", name)
	}
}

// TestDistributedEquivalenceWorkerKilledMidRun is the acceptance golden:
// two workers, one SIGKILLed after its first completed block, over a
// transport that cuts the first response short — the distributed run must
// be byte-identical to the single-process run.
func TestDistributedEquivalenceWorkerKilledMidRun(t *testing.T) {
	for _, wf := range distWorkflows {
		const name = "batch"
		t.Run(name+"/wf"+itoa2(wf), func(t *testing.T) {
			want := localRun(t, wf)
			victim := startKillableWorker(t)
			survivor := startWorker(t)
			cfg := distConfig(t, wf, []string{victim.URL, survivor.URL}, func(o *CoordinatorOptions) {
				o.Client = &http.Client{Transport: &flakyNet{fault: faultAt(map[int]netFault{0: netCut})}}
			})
			got := runCycleOf(t, wf, cfg)
			assertRunsEqual(t, name, want, got)
			if got.Dist == nil {
				t.Fatal("distributed run carries no DistReport")
			}
			if got.Dist.FellBack {
				t.Errorf("run fell back in-process (%s); a surviving worker should have absorbed the blocks", got.Dist.Reason)
			}
			if len(got.Dist.Remote) == 0 {
				t.Error("no blocks executed remotely")
			}
		})
	}
}

// TestDistributedAllWorkersLostFallsBack kills every worker mid-run: the
// coordinator must finish in-process from the committed blocks and report
// the degradation — outputs still byte-identical, never partial.
func TestDistributedAllWorkersLostFallsBack(t *testing.T) {
	const name = "batch"
	t.Run(name, func(t *testing.T) {
		const wf = 8 // 3 blocks: remote progress, then local completion
		want := localRun(t, wf)
		a := startKillableWorker(t)
		b := startKillableWorker(t)
		cfg := distConfig(t, wf, []string{a.URL, b.URL}, nil)
		got := runCycleOf(t, wf, cfg)
		assertRunsEqual(t, name, want, got)
		d := got.Dist
		if d == nil {
			t.Fatal("distributed run carries no DistReport")
		}
		if !d.FellBack {
			t.Fatal("expected the run to fall back in-process after losing every worker")
		}
		if d.Reason == "" {
			t.Error("fallback carries no reason")
		}
		if len(d.Remote)+len(d.Local) == 0 {
			t.Error("report lists no executed blocks")
		}
		if len(d.LostWorkers) != 2 {
			t.Errorf("want 2 lost workers, got %v", d.LostWorkers)
		}
		// Never a partial result: every sink of the local reference is
		// present and full.
		for name, tbl := range want.Sinks {
			g, ok := got.Sinks[name]
			if !ok || len(g.Rows) != len(tbl.Rows) {
				t.Errorf("sink %q incomplete after fallback", name)
			}
		}
	})
}

// netFault is what flakyNet does to one block-run request.
type netFault int

const (
	netClean netFault = iota
	// netDrop fails the request before it is sent.
	netDrop
	// netCut sends the request and ends the response body after cutAt
	// bytes: the worker did the work, the coordinator cannot read it.
	netCut
	// netDelay holds the request for delayBy, longer than a heartbeat
	// period, then sends it.
	netDelay
)

const (
	cutAt   = 32
	delayBy = heartbeatEvery + 50*time.Millisecond
)

// flakyNet is a deterministic network between a coordinator and its
// workers: it numbers the block-run requests it carries from 0 and does
// fault(n) to the n-th over the real transport. Health probes pass
// untouched. Every failure it makes reaches the coordinator the way a real
// one does: as an error from Client.Do, or as a body that stops short.
type flakyNet struct {
	fault func(n int) netFault
	runs  atomic.Int64
}

// faultAt faults the requests a plan numbers and leaves the rest clean.
func faultAt(plan map[int]netFault) func(int) netFault {
	return func(n int) netFault { return plan[n] }
}

func (f *flakyNet) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/v1/worker/run") {
		return http.DefaultTransport.RoundTrip(req)
	}
	switch f.fault(int(f.runs.Add(1) - 1)) {
	case netDrop:
		req.Body.Close()
		return nil, errors.New("flaky network: request dropped before sending")
	case netDelay:
		select {
		case <-time.After(delayBy):
		case <-req.Context().Done():
			req.Body.Close()
			return nil, req.Context().Err()
		}
	case netCut:
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.LimitReader(resp.Body, cutAt), resp.Body}
		return resp, nil
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDistributedTransportFaultMatrix runs wf08's three-block chain 0 → 1
// → 2 over a flaky transport: a cut response is retried on the same pool, a
// dropped request loses its worker to the survivor, delays longer than a
// heartbeat cost nothing, and when every request fails the run finishes
// in-process — byte-identical outputs every time. When only block 2's
// requests fail, blocks 0 and 1 have committed held, so the in-process
// block 2 recomputes block 1 and, to make it, block 0: two levels up.
func TestDistributedTransportFaultMatrix(t *testing.T) {
	const wf = 8
	want := localRun(t, wf)
	every := func(f netFault) func(int) netFault { return func(int) netFault { return f } }
	from := func(first int, f netFault) func(int) netFault {
		return func(n int) netFault {
			if n < first {
				return netClean
			}
			return f
		}
	}
	for _, c := range []struct {
		name             string
		fault            func(int) netFault
		reassigned       int64
		lost             []int // indexes into the fleet
		local            []int // blocks run in-process after the fleet was lost
		held, recomputed int64
	}{
		{"cut", faultAt(map[int]netFault{0: netCut, 2: netCut}), 2, nil, nil, 2, 0},
		{"drop", faultAt(map[int]netFault{0: netDrop}), 1, []int{0}, nil, 2, 0},
		{"delay", every(netDelay), 0, nil, nil, 2, 0},
		{"cut, drop and delay", faultAt(map[int]netFault{0: netCut, 1: netDelay, 2: netDrop}), 2, []int{1}, nil, 2, 0},
		{"every request fails", every(netDrop), 2, []int{0, 1}, []int{0, 1, 2}, 0, 0},
		{"every request from the third fails", from(2, netDrop), 2, []int{0, 1}, []int{2}, 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			fleet := []string{startWorker(t).URL, startWorker(t).URL}
			net := &flakyNet{fault: c.fault}
			cfg := distConfig(t, wf, fleet, func(o *CoordinatorOptions) {
				o.Client = &http.Client{Transport: net}
			})
			cy := cycleOf(t, wf, cfg)
			assertRunsEqual(t, c.name, want, cy.Observed)
			d := cy.Observed.Dist
			var lost []string
			for _, i := range c.lost {
				lost = append(lost, fleet[i])
			}
			if d.FellBack != (len(c.local) > 0) || d.Reassigned != c.reassigned || !slices.Equal(d.LostWorkers, lost) {
				t.Errorf("fell back %v, %d reassignment(s), lost %v; want %v, %d, %v (%+v)",
					d.FellBack, d.Reassigned, d.LostWorkers, len(c.local) > 0, c.reassigned, lost, d)
			}
			var remote []int
			for _, b := range cy.Analysis.Blocks {
				if !slices.Contains(c.local, b.Index) {
					remote = append(remote, b.Index)
				}
			}
			if !slices.Equal(d.Remote, remote) || !slices.Equal(d.Local, c.local) || d.Held != c.held || d.Recomputed != c.recomputed {
				t.Errorf("remote %v, local %v, %d held, %d recomputed; want %v, %v, %d, %d",
					d.Remote, d.Local, d.Held, d.Recomputed, remote, c.local, c.held, c.recomputed)
			}
		})
	}
}

// startOversizeWorker answers health but returns the given body for every
// block run — the deterministic-undeliverable case.
func startOversizeWorker(t *testing.T, body []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/worker/health" {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestDistributedOversizeResponseFallsBack pins the wire-cap guard: a block
// whose payload cannot cross the wire whole is deterministically
// undeliverable, so the run must complete in-process — no retry burn, no
// silent truncation, outputs identical. Over the cap as sent, or a kilobyte
// that would inflate past it, declared honestly or not.
func TestDistributedOversizeResponseFallsBack(t *testing.T) {
	const (
		wf      = 6
		lowered = 1 << 20
	)
	want := localRun(t, wf)
	_, payload := framePayload(t, responseFrame(t, frameBlock(t)))
	bomb := append(payload[:len(payload):len(payload)], make([]byte, lowered)...)
	for _, c := range []struct {
		name    string
		body    []byte
		maxBody int64
	}{
		{"body over the cap", bytes.Repeat([]byte{'x'}, maxUploadBytes+1), maxUploadBytes},
		{"deflate bomb, declared", sealedFrame(t, frameDeflate, uint64(len(bomb)), bomb), lowered},
		{"deflate bomb, undeclared", sealedFrame(t, frameDeflate, uint64(len(payload)), bomb), maxUploadBytes},
	} {
		t.Run(c.name, func(t *testing.T) {
			if strings.Contains(c.name, "bomb") && len(c.body) > 2048 {
				t.Fatalf("bomb is %d bytes", len(c.body))
			}
			big := startOversizeWorker(t, c.body)
			cfg := distConfig(t, wf, []string{big.URL}, nil)
			cfg.Dispatcher.(*Coordinator).maxBody = c.maxBody
			got := runCycleOf(t, wf, cfg)
			assertRunsEqual(t, "oversize", want, got)
			if got.Dist == nil || !got.Dist.FellBack {
				t.Fatal("oversized worker response should degrade to the in-process fallback")
			}
			if !strings.Contains(got.Dist.Reason, "wire cap") {
				t.Errorf("fallback reason should name the wire cap, got %q", got.Dist.Reason)
			}
			if got.Dist.Reassigned != 0 {
				t.Errorf("an undeliverable response burned %d retries", got.Dist.Reassigned)
			}
		})
	}
}

// TestDistributedOversizeRequestFallsBack is the request-side twin: a block
// whose request frame is over the cap — here a cap lowered under its
// header — is as undeliverable as one whose response is, whichever end
// notices. The
// coordinator checks the frame it built before sending it; a worker with a
// smaller cap answers 413, to a frame that declares too much before it
// inflates any of it. All must degrade to in-process execution, not fail
// the run.
func TestDistributedOversizeRequestFallsBack(t *testing.T) {
	const wf = 8
	want := localRun(t, wf)
	check := func(t *testing.T, got *engine.Result, reason string) {
		t.Helper()
		assertRunsEqual(t, "oversize request", want, got)
		if got.Dist == nil || !got.Dist.FellBack {
			t.Fatal("oversized request should degrade to the in-process fallback")
		}
		if !strings.Contains(got.Dist.Reason, "wire cap") || !strings.Contains(got.Dist.Reason, reason) {
			t.Errorf("fallback reason should name the wire cap and %q, got %q", reason, got.Dist.Reason)
		}
		if got.Dist.Reassigned != 0 {
			t.Errorf("an undeliverable request burned %d retries", got.Dist.Reassigned)
		}
	}

	t.Run("coordinator", func(t *testing.T) {
		var runs atomic.Int64
		h := NewWorker().Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/worker/run" {
				runs.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		cfg := distConfig(t, wf, []string{srv.URL}, nil)
		cfg.Dispatcher.(*Coordinator).maxBody = 16
		check(t, runCycleOf(t, wf, cfg), "request of")
		if n := runs.Load(); n != 0 {
			t.Errorf("%d over-cap request(s) were sent anyway", n)
		}
	})

	t.Run("worker", func(t *testing.T) {
		wk := NewWorker()
		wk.maxBody = 16
		srv := httptest.NewServer(wk.Handler())
		t.Cleanup(srv.Close)
		cfg := distConfig(t, wf, []string{srv.URL}, nil)
		check(t, runCycleOf(t, wf, cfg), "cap 16")
	})

	t.Run("worker, inflated", func(t *testing.T) {
		// Each frame is let through at exactly its size on the wire, which
		// is less than what it inflates to.
		wk := NewWorker()
		h := wk.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/worker/run" {
				body, _ := io.ReadAll(r.Body)
				wk.maxBody = int64(len(body))
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		cfg := distConfig(t, wf, []string{srv.URL}, nil)
		check(t, runCycleOf(t, wf, cfg), "frame of")
	})
}

// TestDistributedDataMismatchFallsBack runs a coordinator whose engine's
// data is the suite's at four times the scale its RunSpec tells the workers:
// the first response says its block read a source relation of another row
// count — though wf06's block 0 is held and ships no table — so the run
// falls back in-process, says which relation, and ends as the local run over
// the engine's data does.
func TestDistributedDataMismatchFallsBack(t *testing.T) {
	const wf = 6
	w := suite.MustGet(wf)
	db := w.Data(4 * distScale)
	want, err := core.RunCtx(context.Background(), w.Graph, w.Catalog, db, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RunCtx(context.Background(), w.Graph, w.Catalog, db, distConfig(t, wf, []string{startWorker(t).URL}, nil))
	if err != nil {
		t.Fatal(err)
	}
	assertRunsEqual(t, "mismatched data", want.Observed, got.Observed)
	d := got.Observed.Dist
	if d == nil || !d.FellBack || len(d.Remote) != 0 {
		t.Fatalf("a run over other data than the workers' was placed %+v", d)
	}
	if !strings.Contains(d.Reason, `relation "Orders" at 87 rows, the run's data has 351`) {
		t.Errorf("fallback reason should name the relation and its row counts, got %q", d.Reason)
	}
	t.Log(d.Reason)
}

// wireCounter keeps the block dispatches it carries — where each went, the
// status it got and both bodies — to count them the way the benchmark's
// dist_wire_mb does and to take each frame's payload apart for what the
// bytes were before DEFLATE.
type wireCounter struct {
	mu        sync.Mutex
	exchanges []exchange
}

type exchange struct {
	addr      string // the worker's base URL
	status    int
	req, resp []byte
}

func (c *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/v1/worker/run") {
		return http.DefaultTransport.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(answer))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exchanges = append(c.exchanges, exchange{req.URL.Scheme + "://" + req.URL.Host, resp.StatusCode, body, answer})
	return resp, nil
}

// frameSections splits a frame's payload into its sections, length
// prefixes left out: the header first.
func frameSections(t *testing.T, frame []byte) [][]byte {
	t.Helper()
	_, payload := framePayload(t, frame)
	var sections [][]byte
	for len(payload) > 0 {
		n, w := binary.Uvarint(payload)
		sections = append(sections, payload[w:w+int(n)])
		payload = payload[w+int(n):]
	}
	return sections
}

// requestOf takes a request frame apart: its header, which must be all of
// it, and the header's size.
func requestOf(t *testing.T, frame []byte) (hdr workerRunRequest, size int) {
	t.Helper()
	sections := frameSections(t, frame)
	if err := json.Unmarshal(sections[0], &hdr); err != nil {
		t.Fatalf("request header: %v", err)
	}
	if len(sections) != 1 {
		t.Errorf("block %d: %d section(s) after the request header", hdr.Block, len(sections)-1)
	}
	return hdr, len(sections[0])
}

// split is the bytes the requests and the responses sent, what their
// payloads inflate to (section length prefixes left out) and the resident
// refs the requests made: a request is its header, a response's first
// section is its header, its last the statistics shard, every other a
// table.
func (c *wireCounter) split(t *testing.T) (requests, responses, header, tables, shard, resident int64) {
	for _, x := range c.exchanges {
		requests += int64(len(x.req))
		responses += int64(len(x.resp))
		hdr, size := requestOf(t, x.req)
		resident += int64(len(hdr.Resident))
		sections := frameSections(t, x.resp)
		for _, sec := range sections[1 : len(sections)-1] {
			tables += int64(len(sec))
		}
		header += int64(size + len(sections[0]))
		shard += int64(len(sections[len(sections)-1]))
	}
	return requests, responses, header, tables, shard, resident
}

// TestDistributedWireBytes is the wire format's regression guard inside
// tier-1: byte counts do not suffer timing noise, so a codec or framing
// change that moves the wire fails here and not only in the benchmark. The
// cases are the dist-run benchmark workload's six dispatched runs, and each
// pins the bytes its requests and its responses move, exactly, under go
// 1.24's compress/flate at level 3: 243 + 2,872, 421 + 5,421, 670 + 3,058,
// 350 + 4,489, 507 + 2,693 and 456 + 792 B, 2,647 + 19,325 = 21,972 B in
// all. A request carries only its own block's statistics; a response ships
// its tables late (data.WriteLate): a source relation's columns as a row
// index into the relation, which the coordinator holds too — read directly
// or through a held upstream output — and its header the row counts of the
// sources the block read. When requests carried every block's statistics
// and a column read from a held output shipped plain, the runs moved
// 243 + 2,872, 449 + 7,306, 734 + 3,501, 379 + 4,489, 617 + 2,981 and
// 527 + 813 B, 2,949 + 21,962 = 24,911 B; when responses shipped every
// cell, in ETBL5 tables, 3,468 B, 16,297 B, 4,426 B, 10,514 B, 4,458 B and
// 1,341 B, 40,504 B in all; over ETBL4 tables, which ship a hash join's
// build rows once per probe row where ETBL5's chain columns ship them once
// per key, 5,508 B, 19,675 B, 5,323 B, 17,443 B, 4,848 B and 1,412 B,
// 54,209 B. wf07 at scale 0.01 is two dispatches whose upstream table is
// the largest the benchmark makes; it never crosses the wire: block 0's
// worker holds it and block 1's request names it. wf08 at 0.05 is three
// dispatches moving ~167k rows of join output (3,378,533 B as base64
// row-major varints in JSON), two of whose outputs stay on their workers.
// wf05 at 0.001 and wf12 at 0.002 are one instrumented block each of many
// statistics, so their shards are most of what they inflate to. Each case
// pins its observed store's WriteTo bytes exactly. A clean run makes one
// exchange per block: no recompute.
func TestDistributedWireBytes(t *testing.T) {
	for _, c := range []struct {
		wf                               int
		scale                            float64
		blocks, held                     int
		requests, responses, sent, store int64
	}{
		{wf: 5, scale: 0.001, blocks: 1, held: 0, requests: 243, responses: 2_872, sent: 3_115, store: 2_802},
		{wf: 7, scale: 0.01, blocks: 2, held: 1, requests: 421, responses: 5_421, sent: 5_842, store: 54},
		{wf: 8, scale: 0.05, blocks: 3, held: 2, requests: 670, responses: 3_058, sent: 3_728, store: 74},
		{wf: 13, scale: 0.1, blocks: 2, held: 0, requests: 350, responses: 4_489, sent: 4_839, store: 65},
		{wf: 18, scale: 0.01, blocks: 2, held: 1, requests: 507, responses: 2_693, sent: 3_200, store: 849},
		{wf: 15, scale: 0.001, blocks: 2, held: 1, requests: 456, responses: 792, sent: 1_248, store: 191},
		{wf: 12, scale: 0.002, blocks: 1, held: 0, requests: 290, responses: 3_100, sent: 3_390, store: 3_056},
	} {
		t.Run(fmt.Sprintf("wf%02d@%v", c.wf, c.scale), func(t *testing.T) {
			w, err := suite.Get(c.wf)
			if err != nil {
				t.Fatal(err)
			}
			db := w.Data(c.scale)
			w1, w2 := startWorker(t), startWorker(t)
			var runs [2]*wireCounter
			for i := range runs {
				runs[i] = &wireCounter{}
				cfg := core.DefaultConfig()
				coord, err := NewCoordinator(RunSpec{WF: c.wf, Scale: c.scale, CSS: cfg.CSS},
					CoordinatorOptions{Addrs: []string{w1.URL, w2.URL}, Client: &http.Client{Transport: runs[i]}})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Dispatcher = coord
				cy, err := core.RunCtx(context.Background(), w.Graph, w.Catalog, db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				d := cy.Observed.Dist
				if d == nil || d.FellBack || len(d.Remote) != c.blocks || d.Reassigned != 0 || d.Held != int64(c.held) || d.Resident != int64(c.held) || d.Recomputed != 0 {
					t.Fatalf("run %d was not %d clean remote dispatches holding %d output(s) and recomputing none: %+v", i, c.blocks, c.held, d)
				}
				if n := len(runs[i].exchanges); n != c.blocks {
					t.Errorf("run %d made %d exchanges for %d blocks", i, n, c.blocks)
				}
				if n, err := cy.Observed.Observed.WriteTo(io.Discard); err != nil || n != c.store {
					t.Errorf("run %d observed a store of %d bytes (%v), want %d", i, n, err, c.store)
				}
			}
			requests, responses, header, tables, shard, resident := runs[0].split(t)
			if again, againResp, _, _, _, _ := runs[1].split(t); requests != again || responses != againResp {
				t.Errorf("the same run moved %d + %d bytes, then %d + %d", requests, responses, again, againResp)
			}
			if resident != int64(c.held) {
				t.Errorf("the requests named %d resident output(s), want %d", resident, c.held)
			}
			if c.requests+c.responses != c.sent {
				t.Fatalf("the case pins %d + %d request and response bytes, which is not its %d", c.requests, c.responses, c.sent)
			}
			if requests != c.requests || responses != c.responses {
				t.Errorf("moved %d request + %d response bytes over the wire, want %d + %d", requests, responses, c.requests, c.responses)
			}
			t.Logf("%d + %d = %d bytes over the wire, inflating to header %d + tables %d + shard %d; %d resident ref(s)", requests, responses, requests+responses, header, tables, shard, resident)
		})
	}
}

// empty drops everything the store holds, as a restart would.
func (s *residentStore) empty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.order.Init()
	s.byKey, s.bytes = nil, 0
}

// TestDistributedResidentMiss empties the producer's store between the two
// blocks of a chain: the frame that names block 0's held output gets a 409,
// the same worker gets block 0's lineage frame — byte for byte the request
// that made the output — and then the frame again. No worker lost, no retry
// spent, and the statistics shard of the recompute is not merged a second
// time: outputs and observed bytes unchanged.
func TestDistributedResidentMiss(t *testing.T) {
	const wf = 7
	want := localRun(t, wf)
	wk := NewWorker()
	h := wk.Handler()
	var runs atomic.Int64
	producer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/worker/run" && runs.Add(1) == 2 {
			wk.resident.empty()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(producer.Close)
	wire := &wireCounter{}
	cfg := distConfig(t, wf, []string{producer.URL, startWorker(t).URL}, func(o *CoordinatorOptions) {
		o.Client = &http.Client{Transport: wire}
	})
	got := runCycleOf(t, wf, cfg)
	assertRunsEqual(t, "resident miss", want, got)
	if d := got.Dist; d.FellBack || d.Reassigned != 0 || len(d.LostWorkers) != 0 || d.Held != 1 || d.Recomputed != 1 {
		t.Errorf("a store miss cost more than a recompute: %+v", d)
	}
	assertExchanges(t, wire, producer.URL, []int{0, 1, 0, 1}, []int{200, 409, 200, 200})
	if x := wire.exchanges; len(x) == 4 && !bytes.Equal(x[2].req, x[0].req) {
		t.Error("the recompute is not the request that made the output")
	}
}

// TestDistributedUnheldOutputFallsBack lowers the worker's store bound
// under wf07's block 0 output: the worker sends the output it was asked to
// hold, so the session has no request that names it, and block 1, which
// reads it, runs in-process — with the local run's results, and a reason
// that names both blocks.
func TestDistributedUnheldOutputFallsBack(t *testing.T) {
	const wf = 7
	want := localRun(t, wf)
	wk := NewWorker()
	wk.resident.max = 0
	srv := httptest.NewServer(wk.Handler())
	t.Cleanup(srv.Close)
	got := runCycleOf(t, wf, distConfig(t, wf, []string{srv.URL}, nil))
	assertRunsEqual(t, "output sent, not held", want, got)
	d := got.Dist
	if !d.FellBack || !slices.Equal(d.Remote, []int{0}) || !slices.Equal(d.Local, []int{1}) || d.Held != 0 || d.Resident != 0 || d.Recomputed != 0 {
		t.Errorf("placement: %+v; want block 0 remote and sent, block 1 in-process", d)
	}
	if !strings.Contains(d.Reason, "block 1 reads block 0") {
		t.Errorf("fallback reason should name both blocks, got %q", d.Reason)
	}
	if n := len(wk.resident.byKey); n != 0 {
		t.Errorf("the store holds %d output(s) over its bound", n)
	}
	t.Log(d.Reason)
}

// TestDistributedResidentMissTwoLevels empties both workers' stores before
// block 2 of wf08's chain: block 2's frame misses block 1's output, whose
// lineage frame misses block 0's, so the recompute goes two levels up before
// block 2 runs.
func TestDistributedResidentMissTwoLevels(t *testing.T) {
	const wf = 8
	want := localRun(t, wf)
	wks := []*Worker{NewWorker(), NewWorker()}
	var runs atomic.Int64
	var addrs []string
	for _, wk := range wks {
		h := wk.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/worker/run" && runs.Add(1) == 3 {
				for _, wk := range wks {
					wk.resident.empty()
				}
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.URL)
	}
	wire := &wireCounter{}
	cfg := distConfig(t, wf, addrs, func(o *CoordinatorOptions) {
		o.Client = &http.Client{Transport: wire}
	})
	got := runCycleOf(t, wf, cfg)
	assertRunsEqual(t, "two-level miss", want, got)
	if d := got.Dist; d.FellBack || d.Reassigned != 0 || len(d.LostWorkers) != 0 || d.Held != 2 || d.Recomputed != 2 {
		t.Errorf("placement: %+v", d)
	}
	assertExchanges(t, wire, addrs[0], []int{0, 1, 2, 1, 0, 1, 2}, []int{200, 200, 409, 409, 200, 200, 200})
}

// TestDistributedResidentProducerLost kills the producer after block 0 of a
// chain: block 1 is reassigned to the survivor, which never held block 0's
// output — it answers 409, makes the output from its lineage, and runs
// block 1 with it named.
func TestDistributedResidentProducerLost(t *testing.T) {
	const wf = 7
	want := localRun(t, wf)
	victim, survivor := startKillableWorker(t), startWorker(t)
	wire := &wireCounter{}
	cfg := distConfig(t, wf, []string{victim.URL, survivor.URL}, func(o *CoordinatorOptions) {
		o.Client = &http.Client{Transport: wire}
	})
	got := runCycleOf(t, wf, cfg)
	assertRunsEqual(t, "producer lost", want, got)
	if d := got.Dist; d.FellBack || d.Reassigned != 1 || !reflect.DeepEqual(d.LostWorkers, []string{victim.URL}) || d.Held != 1 || d.Recomputed != 1 {
		t.Errorf("placement: %+v", d)
	}
	if len(wire.exchanges) == 0 || wire.exchanges[0].addr != victim.URL {
		t.Fatalf("block 0 did not go to the victim: %d exchange(s)", len(wire.exchanges))
	}
	survived := &wireCounter{exchanges: wire.exchanges[1:]}
	assertExchanges(t, survived, survivor.URL, []int{1, 0, 1}, []int{409, 200, 200})
	if x := wire.exchanges; len(x) == 4 && !bytes.Equal(x[2].req, x[0].req) {
		t.Error("the survivor's recompute is not the request the victim ran")
	}
}

// assertExchanges checks a run's dispatches, in order: every one went to
// addr, for the given blocks, answered with the given statuses; no request
// carried a section after its header; and a 409 names the key its frame
// named.
func assertExchanges(t *testing.T, wire *wireCounter, addr string, blocks, statuses []int) {
	t.Helper()
	if len(wire.exchanges) != len(blocks) {
		t.Fatalf("%d exchanges, want %d (blocks %v)", len(wire.exchanges), len(blocks), blocks)
	}
	for i, x := range wire.exchanges {
		hdr, _ := requestOf(t, x.req)
		if x.addr != addr || hdr.Block != blocks[i] || x.status != statuses[i] {
			t.Errorf("exchange %d: block %d to %s: status %d; want block %d to %s, %d",
				i, hdr.Block, x.addr, x.status, blocks[i], addr, statuses[i])
		}
		if x.status == http.StatusConflict && (len(hdr.Resident) != 1 || !strings.Contains(string(x.resp), hdr.Resident[0].SHA256)) {
			t.Errorf("exchange %d: the 409 does not name the key its frame named: %s", i, x.resp)
		}
	}
}

// TestDistributedHungWorkerLeaseExpiry freezes a worker mid-run (requests
// hang, health probes included): only lease expiry can reclaim its block,
// cancel the in-flight request and reassign — outputs stay identical.
func TestDistributedHungWorkerLeaseExpiry(t *testing.T) {
	const wf = 8
	want := localRun(t, wf)
	frozen := startFreezableWorker(t)
	healthy := startWorker(t)
	cfg := distConfig(t, wf, []string{frozen.URL, healthy.URL}, nil)
	coord := cfg.Dispatcher.(*Coordinator)
	coord.heartbeatEvery, coord.leaseTTL = 50*time.Millisecond, 300*time.Millisecond
	got := runCycleOf(t, wf, cfg)
	assertRunsEqual(t, "hung", want, got)
	d := got.Dist
	if d == nil {
		t.Fatal("no DistReport")
	}
	if d.FellBack {
		t.Errorf("healthy worker should have absorbed the frozen worker's blocks (fell back: %s)", d.Reason)
	}
	lostFrozen := false
	for _, addr := range d.LostWorkers {
		if addr == frozen.URL {
			lostFrozen = true
		}
	}
	if !lostFrozen && len(d.Remote) > 1 {
		// The frozen worker only shows as lost if it was dealt a second
		// block; with one block total it freezes after the run finished.
		t.Errorf("frozen worker %s not marked lost (lost: %v)", frozen.URL, d.LostWorkers)
	}
}

// TestDistributedUninstrumentedPlansRun covers the optimized-plans leg
// (plans shipped per block, no instrumentation): engine-level dispatch
// with explicit join trees must match the local optimized run.
func TestDistributedUninstrumentedPlansRun(t *testing.T) {
	const wf = 8
	w, err := suite.Get(wf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cy, err := core.RunCtx(context.Background(), w.Graph, w.Catalog, w.Data(distScale), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cy.RunOptimized()
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startWorker(t), startWorker(t)
	dcfg := distConfig(t, wf, []string{w1.URL, w2.URL}, nil)
	dcy, err := core.RunCtx(context.Background(), w.Graph, w.Catalog, w.Data(distScale), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dcy.RunOptimized()
	if err != nil {
		t.Fatal(err)
	}
	assertRunsEqual(t, "optimized", want, got)
	if got.Dist == nil || len(got.Dist.Remote) == 0 {
		t.Error("optimized distributed run executed nothing remotely")
	}
}

// TestCoordinatorRejectsEmptyFleet pins the configuration guard.
func TestCoordinatorRejectsEmptyFleet(t *testing.T) {
	if _, err := NewCoordinator(RunSpec{WF: 1, Scale: 1}, CoordinatorOptions{}); err == nil {
		t.Fatal("NewCoordinator accepted an empty worker fleet")
	}
}

// TestDistributedMetricsEquivalence is the metrics-on golden: workers ship
// each block's per-node metrics, so a distributed cycle with CollectMetrics
// renders the byte-identical deterministic metrics report — operator row
// counts and the q-error feedback, exact under exact statistics — and
// chooses the same plans as the single-process cycle.
func TestDistributedMetricsEquivalence(t *testing.T) {
	eachDistLeg(t, func(t *testing.T, wf int) {
		cfg := core.DefaultConfig()
		cfg.CollectMetrics = true
		want := cycleOf(t, wf, cfg)
		w1, w2 := startWorker(t), startWorker(t)
		got := cycleOf(t, wf, dispatched(t, cfg, wf, []string{w1.URL, w2.URL}, nil))
		assertRunsEqual(t, "metrics", want.Observed, got.Observed)
		var wantJSON, gotJSON bytes.Buffer
		if err := want.WriteMetrics(&wantJSON, "json"); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteMetrics(&gotJSON, "json"); err != nil {
			t.Fatalf("distributed cycle has no metrics report: %v", err)
		}
		if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
			t.Errorf("metrics report differs:\n local %s\n dist  %s", wantJSON.Bytes(), gotJSON.Bytes())
		}
		if got.Feedback == nil || got.Feedback.MaxQ != 1 {
			t.Errorf("distributed feedback = %+v, want max q-error 1", got.Feedback)
		}
		if w, g := treesOf(want, want.Plans.Trees()), treesOf(got, got.Plans.Trees()); w != g {
			t.Errorf("plans differ:\n local %s\n dist  %s", w, g)
		}
		if d := got.Observed.Dist; d == nil || d.FellBack || len(d.Remote) != len(got.Analysis.Blocks) {
			t.Errorf("run was not placed remotely: %+v", d)
		}
	})
}

// TestDistributedEngineFaultsSetOnce sets core.Config.Faults and nothing
// else: the engine tells the workers, so transient faults retry and
// permanent tap faults degrade on the workers exactly as they do in one
// process — same Retries, same Degraded list, same bytes.
func TestDistributedEngineFaultsSetOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		inj  *faults.Injector
	}{
		{"transient", faults.New(7, 1, 1, 0)},
		{"degraded-taps", faults.New(7, 0.5, 0, faults.Tap)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eachDistLeg(t, func(t *testing.T, wf int) {
				cfg := core.DefaultConfig()
				cfg.Faults = tc.inj
				want := cycleOf(t, wf, cfg)
				w1, w2 := startWorker(t), startWorker(t)
				got := cycleOf(t, wf, dispatched(t, cfg, wf, []string{w1.URL, w2.URL}, nil))
				assertRunsEqual(t, tc.name, want.Observed, got.Observed)
				if want.Observed.Retries != got.Observed.Retries {
					t.Errorf("retries: local %d, distributed %d", want.Observed.Retries, got.Observed.Retries)
				}
				if w, g := degradedList(want.Observed), degradedList(got.Observed); !reflect.DeepEqual(w, g) {
					t.Errorf("degraded statistics: local %v, distributed %v", w, g)
				}
				if want.Observed.Retries == 0 && len(want.Observed.Degraded) == 0 {
					t.Error("the injector never fired; the leg checks nothing")
				}
				if w, g := treesOf(want, want.Plans.Trees()), treesOf(got, got.Plans.Trees()); w != g {
					t.Errorf("plans differ:\n local %s\n dist  %s", w, g)
				}
				if d := got.Observed.Dist; d == nil || d.FellBack {
					t.Errorf("run was not placed remotely: %+v", d)
				}
			})
		})
	}
}

// degradedList renders a run's degraded statistics with their errors.
func degradedList(r *engine.Result) []string {
	var out []string
	for _, fs := range r.Degraded {
		out = append(out, fmt.Sprintf("%v: %v", fs.Stat.Key(), fs.Err))
	}
	return out
}

// TestDistributedMaxRowsRunLevel pins MaxRows as a run-level guard in every
// placement. One row short of the run's total, no single block exceeds the
// cap its worker applies, yet the run must fail — with the guard's text, at
// the block a single-process run fails at — and the exact total must pass.
func TestDistributedMaxRowsRunLevel(t *testing.T) {
	eachDistLeg(t, func(t *testing.T, wf int) {
		cfg := core.DefaultConfig()
		total := cycleOf(t, wf, cfg).Observed.Rows
		w1, w2 := startWorker(t), startWorker(t)
		fleets := map[string][]string{"two-workers": {w1.URL, w2.URL}, "one-slot": {w1.URL}}

		cfg.MaxRows = total
		for name, addrs := range fleets {
			if got := cycleOf(t, wf, dispatched(t, cfg, wf, addrs, nil)).Observed; got.Rows != total {
				t.Errorf("%s: MaxRows = total: %d rows, want %d", name, got.Rows, total)
			}
		}

		cfg.MaxRows = total - 1
		lcy, lerr := tryCycle(t, wf, cfg)
		var want *engine.BlockFailure
		if !errors.As(lerr, &want) || !strings.Contains(lerr.Error(), "intermediate-cardinality guard") {
			t.Fatalf("local run with MaxRows = total-1: %v", lerr)
		}
		for name, addrs := range fleets {
			cy, derr := tryCycle(t, wf, dispatched(t, cfg, wf, addrs, nil))
			var got *engine.BlockFailure
			if !errors.As(derr, &got) {
				t.Errorf("%s: MaxRows = total-1 completed with %d rows: %v", name, cy.Observed.Rows, derr)
				continue
			}
			guard := got.Err.Error()
			if !strings.HasPrefix(guard, "intermediate-cardinality guard") || !strings.HasSuffix(want.Err.Error(), guard) {
				t.Errorf("%s: failed with %q, the local run with %q", name, guard, want.Err)
			}
			// One slot commits blocks in index order, like the local run.
			if name == "one-slot" && (got.Block != want.Block || cy.Observed.Rows != lcy.Observed.Rows) {
				t.Errorf("%s: failed at block %d after %d rows, the local run at block %d after %d",
					name, got.Block, cy.Observed.Rows, want.Block, lcy.Observed.Rows)
			}
		}
	})
}

// itoa2 renders a workflow id as two digits (test names match suite
// naming).
func itoa2(n int) string {
	return string([]byte{byte('0' + n/10), byte('0' + n%10)})
}
