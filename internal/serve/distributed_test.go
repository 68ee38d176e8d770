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
	"github.com/essential-stats/etlopt/internal/data"
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

// killSwitch makes a worker's first run request its last act, emulating a
// worker SIGKILLed mid-run: completed work was already delivered, every
// later connection is refused. The listener closes before the chain runs
// and the response closes its connection, so the refusal is in place by
// the time the coordinator holds the chain's results — a kill that raced
// the response let a fast coordinator hand the dying worker one more chain.
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
// chain.
func startKillableWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ks := &killSwitch{}
	srv := httptest.NewServer(ks.wrap(NewWorker().Handler()))
	ks.srv = srv
	t.Cleanup(srv.Close)
	return srv
}

// startMidChainKilledWorker serves a Worker that dies while its first
// chain runs: the chain runs, but before its response is written the
// listener and every connection close, the chain's own among them, so
// nothing of the chain reaches the coordinator — what it sees of a worker
// killed after the chain's first block.
func startMidChainKilledWorker(t *testing.T) *httptest.Server {
	t.Helper()
	h := NewWorker().Handler()
	var once sync.Once
	var srv *httptest.Server
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		killed := false
		if r.URL.Path == "/v1/worker/run" {
			once.Do(func() { killed = true })
		}
		if !killed {
			h.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(httptest.NewRecorder(), r)
		srv.Listener.Close()
		srv.CloseClientConnections()
	}))
	t.Cleanup(srv.Close)
	return srv
}

// startFreezableWorker serves a Worker that freezes — run and health
// requests hang — from its first chain on: the hung-worker case only lease
// expiry can detect.
func startFreezableWorker(t *testing.T) *httptest.Server {
	t.Helper()
	wk := NewWorker()
	var once sync.Once
	frozen := make(chan struct{})
	release := make(chan struct{})
	h := wk.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/worker/run" {
			once.Do(func() { close(frozen) })
		}
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

// assertMetricsEqual requires two cycles' metrics reports to be the same
// bytes.
func assertMetricsEqual(t *testing.T, name string, want, got *core.Cycle) {
	t.Helper()
	var wantJSON, gotJSON bytes.Buffer
	if err := want.WriteMetrics(&wantJSON, "json"); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteMetrics(&gotJSON, "json"); err != nil {
		t.Fatalf("%s: distributed cycle has no metrics report: %v", name, err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Errorf("%s: metrics report differs:\n local %s\n dist  %s", name, wantJSON.Bytes(), gotJSON.Bytes())
	}
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
// two workers, one SIGKILLed after its first completed chain, over a
// transport that cuts the first response short — or one killed mid-chain,
// after its chain's first block ran, whose chain the survivor must run
// again whole, from the same request — and the distributed run must be
// byte-identical to the single-process run, metrics included.
func TestDistributedEquivalenceWorkerKilledMidRun(t *testing.T) {
	for _, wf := range distWorkflows {
		const name = "batch"
		t.Run(name+"/wf"+itoa2(wf)+"/mid-chain", func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.CollectMetrics = true
			want := cycleOf(t, wf, cfg)
			victim, survivor := startMidChainKilledWorker(t), startWorker(t)
			wire := &wireCounter{}
			got := cycleOf(t, wf, dispatched(t, cfg, wf, []string{victim.URL, survivor.URL}, func(o *CoordinatorOptions) {
				o.Client = &http.Client{Transport: wire}
			}))
			assertRunsEqual(t, name, want.Observed, got.Observed)
			assertMetricsEqual(t, name, want, got)
			d := got.Observed.Dist
			if d.FellBack || d.Reassigned != 1 || d.Exchanges != 1 || !slices.Equal(d.LostWorkers, []string{victim.URL}) || len(d.Remote) != len(got.Analysis.Blocks) {
				t.Errorf("placement %+v; want every block remote in one exchange, after one reassignment away from the lost victim", d)
			}
			x := wire.exchanges
			if len(x) != 2 || x[0].addr != victim.URL || x[0].status != 0 || x[1].addr != survivor.URL || x[1].status != http.StatusOK || !bytes.Equal(x[0].req, x[1].req) {
				t.Fatalf("want the victim's chain request, unanswered, then the same bytes to the survivor: %d exchange(s)", len(x))
			}
			if hdr, _ := requestOf(t, x[1].req); len(hdr.Then)+1 != len(got.Analysis.Blocks) {
				t.Errorf("the replayed request runs block %d then %v, not the whole chain", hdr.Block, hdr.Then)
			}
		})
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

// TestDistributedAllWorkersLostFallsBack kills every worker mid-run, each
// in the middle of wf08's chain: the coordinator must finish in-process
// and report the degradation — outputs still byte-identical, never
// partial.
func TestDistributedAllWorkersLostFallsBack(t *testing.T) {
	const name = "batch"
	t.Run(name, func(t *testing.T) {
		const wf = 8
		want := localRun(t, wf)
		a := startMidChainKilledWorker(t)
		b := startMidChainKilledWorker(t)
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

// TestDistributedRefusedResponseFallsBack: two workers answer wf06's
// two-block chain with a whole 200 whose frame carries one block entry.
// Every worker of a build answers a request alike, so the coordinator
// takes the refusal as the run's, not the worker's: one attempt, no
// reassignment, no worker lost, and the run finishes in-process with the
// single-process outputs.
func TestDistributedRefusedResponseFallsBack(t *testing.T) {
	const wf = 6
	want := localRun(t, wf)
	var runs atomic.Int64
	oneEntry := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/worker/run" {
			runs.Add(1)
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", frameContentType)
			w.Write(responseFrame(t, frameBlock(t)))
		}
	})
	a, b := httptest.NewServer(oneEntry), httptest.NewServer(oneEntry)
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	got := runCycleOf(t, wf, distConfig(t, wf, []string{a.URL, b.URL}, nil))
	assertRunsEqual(t, "refused", want, got)
	d := got.Dist
	if n := runs.Load(); n != 1 || d == nil || !d.FellBack || d.Reassigned != 0 || len(d.LostWorkers) != 0 || !strings.Contains(d.Reason, "1 block entries for a chain of 2") {
		t.Errorf("%d attempt(s), report %+v: want 1 attempt, no reassignment and a fallback naming the refusal", n, d)
	}
}

// TestDistributedTransportFaultMatrix runs wf08's three-block chain 0 → 1
// → 2, one exchange, over a flaky transport: a cut response is retried on
// the same pool, a dropped request loses its worker to the survivor, delays
// longer than a heartbeat cost nothing, a worker killed mid-chain loses the
// chain to the survivor, which runs it whole, and when every request fails
// the run finishes in-process — byte-identical outputs every time.
func TestDistributedTransportFaultMatrix(t *testing.T) {
	const wf = 8
	want := localRun(t, wf)
	every := func(f netFault) func(int) netFault { return func(int) netFault { return f } }
	for _, c := range []struct {
		name       string
		fault      func(int) netFault
		killed     bool // the fleet's first worker dies mid-chain
		reassigned int64
		lost       []int // indexes into the fleet
		local      []int // blocks run in-process after the fleet was lost
		exchanges  int64
	}{
		{"cut", faultAt(map[int]netFault{0: netCut, 1: netCut}), false, 2, nil, nil, 1},
		{"drop", faultAt(map[int]netFault{0: netDrop}), false, 1, []int{0}, nil, 1},
		{"delay", every(netDelay), false, 0, nil, nil, 1},
		{"cut, drop and delay", faultAt(map[int]netFault{0: netCut, 1: netDrop, 2: netDelay}), false, 2, []int{1}, nil, 1},
		{"killed mid-chain", every(netClean), true, 1, []int{0}, nil, 1},
		{"every request fails", every(netDrop), false, 2, []int{0, 1}, []int{0, 1, 2}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			first := startWorker
			if c.killed {
				first = startMidChainKilledWorker
			}
			fleet := []string{first(t).URL, startWorker(t).URL}
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
			if !slices.Equal(d.Remote, remote) || !slices.Equal(d.Local, c.local) || d.Exchanges != c.exchanges {
				t.Errorf("remote %v, local %v, %d exchange(s); want %v, %v, %d",
					d.Remote, d.Local, d.Exchanges, remote, c.local, c.exchanges)
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
	// A response for wf06's chain of two blocks.
	inner := frameBlock(t)
	inner.Out = nil
	_, payload := framePayload(t, chainResponseFrame(t, blockResult{rb: inner}, blockResult{rb: frameBlock(t)}))
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
// the response says the chain's first block read a source relation of
// another row count — though wf06's block 0 ships no table — so the run
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
// status it got (0 for none) and both bodies — to count them the way the
// benchmark's dist_wire_mb does and to take each frame's payload apart for
// what the bytes were before DEFLATE.
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
	x := exchange{addr: req.URL.Scheme + "://" + req.URL.Host, req: body}
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.exchanges = append(c.exchanges, x)
	}()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if x.resp, err = io.ReadAll(resp.Body); err != nil {
		return nil, err
	}
	x.status = resp.StatusCode
	resp.Body = io.NopCloser(bytes.NewReader(x.resp))
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
		t.Errorf("chain at block %d: %d section(s) after the request header", hdr.Block, len(sections)-1)
	}
	return hdr, len(sections[0])
}

// blockSection is one section of a response, named: the block it belongs
// to and what it is — "out", a materialized target's name, or "shard".
type blockSection struct {
	block int
	name  string
	bytes []byte
}

// responseOf takes a chain's response apart by the layout in frame.go's
// header comment: its header's size, and every block's sections in order.
func responseOf(t *testing.T, x exchange) (header int, sections []blockSection) {
	t.Helper()
	hdr, _ := requestOf(t, x.req)
	chain := append([]int{hdr.Block}, hdr.Then...)
	raw := frameSections(t, x.resp)
	var entries []workerRunResponse
	if err := json.Unmarshal(raw[0], &entries); err != nil {
		t.Fatalf("response header: %v", err)
	}
	header, raw = len(raw[0]), raw[1:]
	for i, e := range entries {
		names := e.Materialized
		if i == len(chain)-1 {
			names = append([]string{"out"}, names...)
		}
		for _, name := range append(names, "shard") {
			sections = append(sections, blockSection{chain[i], name, raw[0]})
			raw = raw[1:]
		}
	}
	if len(raw) > 0 {
		t.Errorf("%d section(s) past the last block's", len(raw))
	}
	return header, sections
}

// split is the bytes the requests and the responses sent, and what their
// payloads inflate to (section length prefixes left out): a request is its
// header; a response is its header, then each block's tables and
// statistics shard.
func (c *wireCounter) split(t *testing.T) (requests, responses, header, tables, shard int64) {
	for _, x := range c.exchanges {
		requests += int64(len(x.req))
		responses += int64(len(x.resp))
		_, size := requestOf(t, x.req)
		hdr, sections := responseOf(t, x)
		header += int64(size + hdr)
		for _, sec := range sections {
			if sec.name == "shard" {
				shard += int64(len(sec.bytes))
			} else {
				tables += int64(len(sec.bytes))
			}
		}
	}
	return requests, responses, header, tables, shard
}

// forms names each table section the responses carry and the form it takes
// (data.WriteLate): "expanded" where its join expansion replaces its index
// columns, "indexes" where it sends them, and how many are expanded.
func (c *wireCounter) forms(t *testing.T) (names []string, expanded int) {
	for _, x := range c.exchanges {
		_, sections := responseOf(t, x)
		for _, sec := range sections {
			if sec.name == "shard" {
				continue
			}
			form := "indexes"
			if len(sec.bytes) > len("ETBL5") && sec.bytes[len("ETBL5")] == 4 { // the expanded presence byte
				form = "expanded"
				expanded++
			}
			names = append(names, fmt.Sprintf("b%d %s %s", sec.block, sec.name, form))
		}
	}
	slices.Sort(names) // independent blocks answer in any order
	return names, expanded
}

// survivors is what the expanded table sections the responses carry spend
// on their levels' surviving rows, read back over db: each level's rows in
// the smaller of a bitmap of its relation (a byte, then one for every 8
// rows) and a gap list (the count plus one, then the first row and each
// later one's gap from the one before, less one), ties to the bitmap.
func (c *wireCounter) survivors(t *testing.T, db engine.DB) (n int64) {
	uvarint := func(u int) int64 { return int64(len(binary.AppendUvarint(nil, uint64(u)))) }
	for _, x := range c.exchanges {
		_, sections := responseOf(t, x)
		for _, sec := range sections {
			if sec.name == "shard" || sec.bytes[len("ETBL5")] != 4 {
				continue
			}
			l, err := data.ReadLate(bytes.NewReader(sec.bytes), 1<<26, db)
			if err != nil {
				t.Fatalf("block %d's %s: %v", sec.block, sec.name, err)
			}
			for _, in := range l.Ins {
				rows := slices.Clone(in.Idx)
				slices.Sort(rows)
				rows = slices.Compact(rows)
				gaps, prev := uvarint(len(rows)+1), int32(-1)
				for _, r := range rows {
					gaps, prev = gaps+uvarint(int(r-prev-1)), r
				}
				n += min(gaps, 1+int64(len(in.Src.Rows)+7)/8)
			}
		}
	}
	return n
}

// payloads is what the frames carry before DEFLATE.
func (c *wireCounter) payloads(t *testing.T) (n int64) {
	for _, x := range c.exchanges {
		_, req := framePayload(t, x.req)
		_, resp := framePayload(t, x.resp)
		n += int64(len(req) + len(resp))
	}
	return n
}

// TestDistributedWireBytes is the wire format's regression guard inside
// tier-1: byte counts do not suffer timing noise, so a codec or framing
// change that moves the wire fails here and not only in the benchmark. The
// cases are the dist-run benchmark workload's six dispatched runs, and each
// pins three things apart. The exchanges: one per chain, so wf07, wf08,
// wf15 and wf18, one chain each, make one, and wf13's two independent
// blocks two — 7 for the six runs. The sections — what the responses'
// tables and statistics shards inflate to, section length prefixes left out
// — are the codec's and the store's bytes, which no framing change may
// move. The bytes the requests and the responses move are the frames',
// pinned under go 1.24's compress/flate at level 6 over the preset
// dictionary: 91 + 1,772, 56 + 1,187, 66 + 498, 91 + 1,015, 110 + 1,002
// and 70 + 366 B, 484 + 5,840 = 6,324 B in all. A request carries only its
// chain's statistics; a response ships its tables late (data.WriteLate): a
// source relation's columns named, not sent, in the relation the
// coordinator holds too — read directly or through the chain's upstream
// output — and its header the row counts of the sources each block read. A
// table that is a join expansion sends each input's surviving rows, as a
// bitmap of the relation or a gap list, whichever is smaller, and the
// columns that key it; the log names each table's form, and every table of
// these runs expands. The log splits what each run inflates to into its
// headers, its tables — the expansions' surviving rows, pinned by a model
// of the two layouts, and the rest — and its shards: over the six runs,
// headers 5,737 B, tables 3,740 B (survivors 2,157) and shards 4,089 B, of
// which wf05's 2-D histogram shard is 2,802. While every level sent its
// survivors as a gap list the tables inflated to 11,263 B, 9,680 of them
// survivors (wf13's 4,989 → 805), and the runs moved 91 + 1,812,
// 56 + 1,396, 66 + 511, 91 + 1,204, 110 + 1,043 and 70 + 382 B, 6,832 B in
// all. wf08's last block, whose T4 joins on U.c, a transform's output,
// sends U.c once a step of T1, as the rider that keys T4: its tables
// inflate to 520 B (849 with gap lists). While that block sent its row indexes,
// they inflated to 70,400 B, and the runs moved 91 + 1,812, 56 + 1,396,
// 66 + 2,415, 91 + 1,204, 110 + 1,043 and 70 + 382 B, 8,736 B in all, with
// the map and chain column encodings sizing every column against the
// columns before it. When each block was an exchange of its own, and a
// worker kept a chain's upstream output for the next block's request to
// name, the runs moved 92 + 1,815, 143 + 1,434, 236 + 2,504, 90 + 1,203,
// 205 + 1,197 and 162 + 497 B, 9,578 B in 12 exchanges. With row indexes
// for every table they moved 18,518 B; at level 3 without the dictionary
// (EBLK2), 21,972 B. When requests carried every block's statistics and a
// column read from an upstream output shipped plain, 24,911 B at level 3;
// when responses shipped every cell, in ETBL5 tables, 40,504 B; over ETBL4
// tables, which ship a hash join's build rows once per probe row where
// ETBL5's chain columns shipped them once per key, 54,209 B. wf07 at scale
// 0.01 is a chain whose upstream table is the largest the benchmark makes;
// it never crosses the wire. wf08 at 0.05 is a chain of three blocks moving
// ~167k rows of join output (3,378,533 B as base64 row-major varints in
// JSON), whose first two outputs never leave the worker. wf05 at 0.001 and
// wf12 at 0.002 are one instrumented block each of many statistics, so
// their shards are most of what they inflate to. Each case pins its
// observed store's WriteTo bytes exactly.
func TestDistributedWireBytes(t *testing.T) {
	for _, c := range []struct {
		wf                               int
		scale                            float64
		blocks, exchanges                int
		requests, responses, sent, store int64
		tables, survivors, shard         int64
		expanded                         int
	}{
		{wf: 5, scale: 0.001, blocks: 1, exchanges: 1, requests: 91, responses: 1_772, sent: 1_863, store: 2_802, tables: 279, survivors: 99, shard: 2_802, expanded: 1},
		{wf: 7, scale: 0.01, blocks: 2, exchanges: 1, requests: 56, responses: 1_187, sent: 1_243, store: 54, tables: 1_128, survivors: 908, shard: 63, expanded: 2},
		{wf: 8, scale: 0.05, blocks: 3, exchanges: 1, requests: 66, responses: 498, sent: 564, store: 74, tables: 520, survivors: 146, shard: 92, expanded: 2},
		{wf: 13, scale: 0.1, blocks: 2, exchanges: 2, requests: 91, responses: 1_015, sent: 1_106, store: 65, tables: 972, survivors: 805, shard: 74, expanded: 2},
		{wf: 18, scale: 0.01, blocks: 2, exchanges: 1, requests: 110, responses: 1_002, sent: 1_112, store: 849, tables: 486, survivors: 155, shard: 858, expanded: 2},
		{wf: 15, scale: 0.001, blocks: 2, exchanges: 1, requests: 70, responses: 366, sent: 436, store: 191, tables: 355, survivors: 44, shard: 200, expanded: 2},
		{wf: 12, scale: 0.002, blocks: 1, exchanges: 1, requests: 138, responses: 2_035, sent: 2_173, store: 3_056, tables: 407, survivors: 66, shard: 3_056, expanded: 1},
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
				if d == nil || d.FellBack || len(d.Remote) != c.blocks || d.Reassigned != 0 || d.Exchanges != int64(c.exchanges) {
					t.Fatalf("run %d was not %d clean remote blocks in %d exchange(s): %+v", i, c.blocks, c.exchanges, d)
				}
				if n := len(runs[i].exchanges); n != c.exchanges {
					t.Errorf("run %d made %d exchanges, want %d", i, n, c.exchanges)
				}
				if n, err := cy.Observed.Observed.WriteTo(io.Discard); err != nil || n != c.store {
					t.Errorf("run %d observed a store of %d bytes (%v), want %d", i, n, err, c.store)
				}
			}
			requests, responses, header, tables, shard := runs[0].split(t)
			if again, againResp, _, _, _ := runs[1].split(t); requests != again || responses != againResp {
				t.Errorf("the same run moved %d + %d bytes, then %d + %d", requests, responses, again, againResp)
			}
			if c.requests+c.responses != c.sent {
				t.Fatalf("the case pins %d + %d request and response bytes, which is not its %d", c.requests, c.responses, c.sent)
			}
			if tables != c.tables || shard != c.shard {
				t.Errorf("the responses' sections inflate to tables %d + shard %d bytes, want %d + %d", tables, shard, c.tables, c.shard)
			}
			if requests != c.requests || responses != c.responses {
				t.Errorf("moved %d request + %d response bytes over the wire, want %d + %d", requests, responses, c.requests, c.responses)
			}
			forms, expanded := runs[0].forms(t)
			if expanded != c.expanded {
				t.Errorf("%d table section(s) expanded, want %d: %v", expanded, c.expanded, forms)
			}
			payloads, survivors := runs[0].payloads(t), runs[0].survivors(t, db)
			if survivors != c.survivors {
				t.Errorf("the expansions' surviving rows take %d of the tables' bytes, want %d", survivors, c.survivors)
			}
			t.Logf("%d + %d = %d bytes over the wire in %d exchange(s), inflating to header %d + tables %d (survivors %d + the rest %d) + shard %d (payloads of %d B, %.0f %% taken by DEFLATE); tables %v",
				requests, responses, requests+responses, c.exchanges, header, tables, survivors, tables-survivors, shard, payloads, 100-100*float64(requests+responses)/float64(payloads), forms)
		})
	}
}

// TestDistributedResidentProducerLost kills the worker running wf07's
// chain after the chain's first block, the producer of the output the
// second block reads, ran: that output stayed resident on the lost worker
// and nowhere else, so the survivor gets the whole chain — the same request
// bytes — and runs both blocks. No block is committed twice.
func TestDistributedResidentProducerLost(t *testing.T) {
	const wf = 7
	want := localRun(t, wf)
	victim, survivor := startMidChainKilledWorker(t), startWorker(t)
	wire := &wireCounter{}
	cfg := distConfig(t, wf, []string{victim.URL, survivor.URL}, func(o *CoordinatorOptions) {
		o.Client = &http.Client{Transport: wire}
	})
	got := runCycleOf(t, wf, cfg)
	assertRunsEqual(t, "producer lost", want, got)
	if d := got.Dist; d.FellBack || d.Reassigned != 1 || d.Exchanges != 1 || !reflect.DeepEqual(d.LostWorkers, []string{victim.URL}) || !slices.Equal(d.Remote, []int{0, 1}) {
		t.Errorf("placement: %+v", d)
	}
	x := wire.exchanges
	if len(x) != 2 || x[0].addr != victim.URL || x[0].status != 0 || x[1].addr != survivor.URL || x[1].status != http.StatusOK {
		t.Fatalf("want the victim's request unanswered, then the survivor's answered: %d exchange(s)", len(x))
	}
	if hdr, _ := requestOf(t, x[1].req); !bytes.Equal(x[0].req, x[1].req) || hdr.Block != 0 || !slices.Equal(hdr.Then, []int{1}) {
		t.Errorf("the survivor's request is not the victim's chain 0 → 1: block %d then %v", hdr.Block, hdr.Then)
	}
}

// TestDistributedHungWorkerLeaseExpiry freezes a worker as its chain
// arrives (requests hang, health probes included): only lease expiry can
// reclaim the chain, cancel the in-flight request and reassign — outputs
// stay identical.
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
	if !slices.Equal(d.LostWorkers, []string{frozen.URL}) || d.Reassigned != 1 || d.Exchanges != 1 {
		t.Errorf("placement %+v; want the frozen worker lost and its chain reassigned once", d)
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

// TestDistributedBlockFailureInsideChain faults wf08's last block for good
// (seed 7) and neither block before it: the worker runs blocks 0 and 1,
// answers with block 2's error in its entry, and the run fails as the
// single-process run does — block 2's *BlockFailure, with the same text,
// after the same rows.
func TestDistributedBlockFailureInsideChain(t *testing.T) {
	const wf = 8
	cfg := core.DefaultConfig()
	cfg.Faults = faults.New(7, 0.3, 0, faults.Operator)
	lcy, lerr := tryCycle(t, wf, cfg)
	dcy, derr := tryCycle(t, wf, dispatched(t, cfg, wf, []string{startWorker(t).URL}, nil))
	var want, got *engine.BlockFailure
	if !errors.As(lerr, &want) || !errors.As(derr, &got) || want.Block != 2 || got.Block != 2 || want.Err.Error() != got.Err.Error() {
		t.Fatalf("in-process %v, distributed %v: want block 2's failure, the same text", lerr, derr)
	}
	if lcy.Observed.Rows != dcy.Observed.Rows || !slices.Equal(dcy.Observed.Dist.Remote, []int{0, 1}) || dcy.Observed.Dist.Exchanges != 1 {
		t.Errorf("the distributed run committed %d rows placed %+v; the in-process run %d rows", dcy.Observed.Rows, dcy.Observed.Dist, lcy.Observed.Rows)
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
