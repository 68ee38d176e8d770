package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
)

// Coordinator is the scheduling side of distributed block dispatch: it
// implements engine.BlockDispatcher over a fleet of Worker HTTP servers.
//
// The unit it places is a chain (engine.Chains, handed over as
// engine.DispatchSpec.Chains): a block and the blocks after it, each
// reading only the output of the one before it.
// The engine asks for every block; the chain's head goes round-robin to a
// live worker in one request that names the whole chain, and the results of
// the blocks after it, which the same response carries, are kept for the
// engine to ask for. A request carries no table, and the outputs a chain
// reads never leave its worker.
//
// Fault tolerance is lease-based. Every dispatched chain holds one lease
// that only successful health probes of its worker renew; when probes fail
// past the lease TTL — the worker is dead, frozen, or partitioned — the
// in-flight request is cancelled, the worker is marked lost, and the chain
// is sent again whole, from the same request, to another live worker after
// engine.Backoff, the engine's own retry backoff (doubling from the base,
// saturated at 100ms). Workers are deterministic executors, so a chain that
// ran twice — a lost ACK, a reassignment after a kill mid-chain — returns
// byte-identical payloads, and the engine's scheduler commits exactly one
// of them.
//
// When every worker is lost, or one chain exhausts its dispatch budget,
// the coordinator reports engine.ErrWorkersLost and the engine finishes
// the run in-process from the blocks it committed: degraded placement,
// never a partial result.
type Coordinator struct {
	run RunSpec
	opt CoordinatorOptions
	// maxBody caps a frame in either direction, as sent and as inflated
	// (maxUploadBytes; tests lower it).
	maxBody int64
	// heartbeatEvery and leaseTTL time the lease (the constants of the same
	// names; the lease-expiry test shortens them).
	heartbeatEvery, leaseTTL time.Duration
}

// RunSpec is what the engine cannot tell the workers of a distributed run;
// every engine knob they must mirror arrives in engine.DispatchSpec.
type RunSpec struct {
	// WF and Scale pin the suite workflow and its generated data.
	WF    int
	Scale float64
	// MaxRows caps one block's intermediate rows on its worker, for
	// promptness; the run-level guard is the engine's, at each commit.
	MaxRows int64
	// CSS rebuilds the statistic universe on instrumented workers.
	CSS css.Options
}

// CoordinatorOptions are what a deployment sets: where the workers are and
// how to reach them.
type CoordinatorOptions struct {
	// Addrs are the worker base URLs ("http://host:port"); at least one is
	// required.
	Addrs []string
	// Client overrides the HTTP client (default: a fresh client with no
	// global timeout; per-request contexts and lease deadlines bound every
	// call).
	Client *http.Client
}

// Lease timing and dispatch retry policy.
const (
	// heartbeatEvery is the health-probe period while a chain is leased.
	heartbeatEvery = 200 * time.Millisecond
	// leaseTTL is how long a lease survives without a successful probe
	// before the chain is reclaimed and reassigned.
	leaseTTL = 2 * time.Second
	// dispatchRetryMax bounds attempts per chain across workers: the
	// first try plus two reassignments.
	dispatchRetryMax = 3
	// dispatchBackoff is the base delay between dispatch attempts.
	dispatchBackoff = time.Millisecond
)

// NewCoordinator validates the options and returns a dispatcher.
func NewCoordinator(run RunSpec, opt CoordinatorOptions) (*Coordinator, error) {
	if len(opt.Addrs) == 0 {
		return nil, fmt.Errorf("serve: coordinator needs at least one worker address")
	}
	if opt.Client == nil {
		opt.Client = &http.Client{}
	}
	return &Coordinator{run: run, opt: opt, maxBody: maxUploadBytes, heartbeatEvery: heartbeatEvery, leaseTTL: leaseTTL}, nil
}

// workerRef is one worker's live/lost state within a session.
type workerRef struct {
	addr string
	lost bool
}

// dispatchSession is one run's dispatch state: the worker fleet, the
// results kept for the blocks after a chain's head, and the dispatch
// accounting.
type dispatchSession struct {
	c    *Coordinator
	base *workerRunRequest
	then map[int][]int // each chain's blocks after its head, by head
	db   engine.DB     // the run's data, which responses name rows of

	mu                    sync.Mutex
	workers               []*workerRef
	next                  int
	kept                  map[int]blockResult
	reassigned, exchanges int64
	lostOrder             []string
}

// DispatchRun opens a session: probe the fleet once and refuse to open
// (wrapping engine.ErrWorkersLost) when nobody answers — the engine then
// runs fully in-process.
func (c *Coordinator) DispatchRun(ctx context.Context, spec *engine.DispatchSpec) (engine.RunDispatch, error) {
	s := &dispatchSession{c: c, base: c.baseRequest(spec), then: map[int][]int{}, db: spec.DB, kept: map[int]blockResult{}}
	for _, chain := range spec.Chains {
		s.then[chain[0]] = chain[1:]
	}
	alive := 0
	for _, addr := range c.opt.Addrs {
		w := &workerRef{addr: addr}
		if err := s.probe(ctx, w); err != nil {
			w.lost = true
			s.lostOrder = append(s.lostOrder, addr)
		} else {
			alive++
		}
		s.workers = append(s.workers, w)
	}
	if alive == 0 {
		return nil, fmt.Errorf("serve: no reachable worker among %d: %w", len(c.opt.Addrs), engine.ErrWorkersLost)
	}
	return s, nil
}

// baseRequest is what every chain request of one run shares: the
// coordinator's RunSpec and the knobs the engine says workers must mirror.
func (c *Coordinator) baseRequest(spec *engine.DispatchSpec) *workerRunRequest {
	return &workerRunRequest{
		WF:         c.run.WF,
		Scale:      c.run.Scale,
		MaxRows:    c.run.MaxRows,
		Faults:     spec.Faults,
		CSS:        c.run.CSS,
		Instrument: spec.Instrument,
		Observe:    spec.Observe,
		Metrics:    spec.Metrics,
		Plans:      spec.Plans,
	}
}

// Slots bounds in-flight blocks to the fleet size.
func (s *dispatchSession) Slots() int { return len(s.c.opt.Addrs) }

// Summary reports the session's dispatch accounting.
func (s *dispatchSession) Summary() (reassigned, exchanges int64, lostWorkers []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reassigned, s.exchanges, append([]string(nil), s.lostOrder...)
}

// permanentError marks a request a worker refused as invalid: it is
// deterministic, so reassignment cannot help, and the engine surfaces it as
// the block's *BlockFailure. A block's own execution error comes back in
// its response entry, with the text an in-process run gives.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// RunBlock answers a block after a chain's head from what the head's
// exchange kept, and dispatches a head with its chain: pick a live worker
// round-robin, hold a heartbeat-renewed lease over the request, and on
// infrastructure failure back off and send the chain again whole — up to
// the dispatch retry budget, after which the chain is declared
// undeliverable (engine.ErrWorkersLost) and the engine falls back
// in-process.
func (s *dispatchSession) RunBlock(ctx context.Context, block int, upstream map[int]*data.Table) (*engine.RemoteBlock, error) {
	s.mu.Lock()
	r, ok := s.kept[block]
	delete(s.kept, block)
	s.mu.Unlock()
	if ok {
		return r.rb, r.err
	}
	chain := append([]int{block}, s.then[block]...)
	frame, err := encodeRunRequest(s.base, chain, s.c.maxBody)
	if overCap(err) {
		return nil, wireCapError(block, "request of "+err.Error())
	}
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < dispatchRetryMax; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			s.mu.Lock()
			s.reassigned++
			s.mu.Unlock()
			if err := engine.Backoff(ctx, dispatchBackoff, attempt-1); err != nil {
				return nil, err
			}
		}
		w := s.pickLive()
		if w == nil {
			return nil, fmt.Errorf("serve: block %d: all workers lost: %w", block, engine.ErrWorkersLost)
		}
		results, err := s.tryWorker(ctx, w, chain, frame)
		if err == nil {
			s.mu.Lock()
			s.exchanges++
			for i, r := range results[1:] {
				s.kept[chain[i+1]] = r
			}
			s.mu.Unlock()
			return results[0].rb, results[0].err
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, perm.err
		}
		if errors.Is(err, engine.ErrWorkersLost) {
			// Deterministically undeliverable (e.g. the response exceeds
			// the wire cap): no retry can change it, degrade to the
			// in-process fallback immediately.
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("serve: block %d undeliverable after %d attempts (last: %v): %w",
		block, dispatchRetryMax, lastErr, engine.ErrWorkersLost)
}

// wireCapError reports a block whose tables cannot cross the wire whole.
// That is a property of the block, not of any worker: every retry would
// fail identically, so the run must finish this block in-process.
func wireCapError(block int, detail string) error {
	return fmt.Errorf("serve: block %d exceeds the wire cap (%s): %w", block, detail, engine.ErrWorkersLost)
}

// overCap reports an encode or decode error that says so: a table over the
// codec's cell cap or a frame over the payload cap, on either side.
func overCap(err error) bool {
	return errors.Is(err, data.ErrWireCap) || errors.Is(err, errFrameCap)
}

// pickLive returns the next live worker round-robin; nil when none is
// live.
func (s *dispatchSession) pickLive() *workerRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.workers)
	for i := 0; i < n; i++ {
		if w := s.workers[(s.next+i)%n]; !w.lost {
			s.next = (s.next + i + 1) % n
			return w
		}
	}
	return nil
}

// markLost flags a worker dead for the rest of the session.
func (s *dispatchSession) markLost(w *workerRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !w.lost {
		w.lost = true
		s.lostOrder = append(s.lostOrder, w.addr)
	}
}

// errLeaseExpired is the cancellation cause of a dispatch whose worker
// answered no health probe for a whole lease TTL.
var errLeaseExpired = errors.New("lease expired")

// tryWorker executes one leased dispatch attempt of a chain against one
// worker.
func (s *dispatchSession) tryWorker(ctx context.Context, w *workerRef, chain []int, body []byte) ([]blockResult, error) {
	block := chain[0]
	lctx, cancel := context.WithCancelCause(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		s.heartbeat(lctx, w, cancel)
	}()
	defer func() { cancel(nil); <-hbDone }()

	req, err := http.NewRequestWithContext(lctx, http.MethodPost, w.addr+"/v1/worker/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", frameContentType)
	resp, err := s.c.opt.Client.Do(req)
	if err != nil {
		// Connection-level failure or lease-expiry cancellation: the
		// worker is gone (or unreachable, which is the same thing to the
		// lease protocol).
		s.markLost(w)
		if errors.Is(context.Cause(lctx), errLeaseExpired) {
			return nil, fmt.Errorf("serve: lease on %s expired for block %d: %w", w.addr, block, err)
		}
		return nil, fmt.Errorf("serve: block %d on %s: %w", block, w.addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		switch {
		case resp.StatusCode == http.StatusRequestEntityTooLarge:
			return nil, wireCapError(block, fmt.Sprintf("worker %s: %s", w.addr, errorBody(msg)))
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			// The request itself is invalid: reassignment cannot change
			// the outcome.
			return nil, &permanentError{err: fmt.Errorf("serve: block %d: worker %s: %s", block, w.addr, errorBody(msg))}
		default:
			s.markLost(w)
			return nil, fmt.Errorf("serve: block %d on %s: status %d: %s", block, w.addr, resp.StatusCode, errorBody(msg))
		}
	}
	// Decode straight from the body, one section at a time. One byte past
	// the cap is let through so that a body over the cap can be told from
	// one of exactly the cap.
	lr := &io.LimitedReader{R: resp.Body, N: s.c.maxBody + 1}
	results, err := decodeRunResponse(lr, s.c.maxBody, s.db, len(chain))
	if err != nil {
		// Whatever stopped the decoder, the body's size is judged first: a
		// frame cut off at the cap fails to decode on every retry.
		if _, rerr := io.Copy(io.Discard, lr); rerr != nil {
			s.markLost(w)
			return nil, fmt.Errorf("serve: block %d on %s: response: %w", block, w.addr, rerr)
		}
	}
	if lr.N <= 0 {
		return nil, wireCapError(block, fmt.Sprintf("response from %s over %d bytes", w.addr, s.c.maxBody))
	}
	if overCap(err) {
		return nil, wireCapError(block, fmt.Sprintf("response from %s: %v", w.addr, err))
	}
	if errors.Is(err, errBodyShort) {
		return nil, fmt.Errorf("serve: block %d on %s: response: %w", block, w.addr, err)
	}
	if err != nil {
		// A whole body this build refuses — one read from other data than
		// the engine's (data.ErrUnresolved), one of the wrong shape, or one
		// in an encoding this build does not read: every worker of the
		// build would answer alike, so the block is the run's to finish.
		return nil, fmt.Errorf("serve: block %d: %s sent a response this build refuses (%v): %w", block, w.addr, err, engine.ErrWorkersLost)
	}
	return results, nil
}

// maxErrorBody bounds how much of a non-200 reply is read for its message.
const maxErrorBody = 1 << 16

// heartbeat holds the lease on one dispatch: each successful health probe
// pushes its deadline a TTL out; when the deadline passes without one, the
// in-flight request is cancelled with errLeaseExpired as the cause, which
// surfaces as a reassignable failure in tryWorker.
func (s *dispatchSession) heartbeat(ctx context.Context, w *workerRef, cancel context.CancelCauseFunc) {
	t := time.NewTicker(s.c.heartbeatEvery)
	defer t.Stop()
	deadline := time.Now().Add(s.c.leaseTTL)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.probe(ctx, w); err == nil {
				deadline = time.Now().Add(s.c.leaseTTL)
			}
			if time.Now().After(deadline) {
				cancel(errLeaseExpired)
				return
			}
		}
	}
}

// probe is one health check, bounded by the heartbeat period.
func (s *dispatchSession) probe(ctx context.Context, w *workerRef) error {
	pctx, cancel := context.WithTimeout(ctx, s.c.heartbeatEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.addr+"/v1/worker/health", nil)
	if err != nil {
		return err
	}
	resp, err := s.c.opt.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: health probe of %s: status %d", w.addr, resp.StatusCode)
	}
	return nil
}

// errorBody extracts the {"error": ...} message from a worker reply.
func errorBody(payload []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(payload))
}
