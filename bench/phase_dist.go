package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/serve"
)

// distEnv is the distributed leg: two serve.Workers on loopback listeners
// and one coordinator per workflow (a RunSpec pins workflow and scale).
type distEnv struct {
	addrs  []string
	wire   *wireCounter
	coords []engine.BlockDispatcher
	// dispatches and reassigned accumulate over the timed rounds.
	dispatches, reassigned int64
}

// wireCounter is the RoundTripper handed to the coordinator: it counts the
// request and response body bytes of block dispatches. Health probes are
// left out — how many fire depends on timing, and dist_wire_mb must repeat
// bit for bit.
type wireCounter struct {
	next  http.RoundTripper
	bytes atomic.Int64
}

type spanCtxKey struct{}

func (c *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	run := strings.HasSuffix(req.URL.Path, "/v1/worker/run")
	if id, ok := req.Context().Value(spanCtxKey{}).(int); ok && run {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	if run && req.ContentLength > 0 {
		c.bytes.Add(req.ContentLength)
	}
	resp, err := c.next.RoundTrip(req)
	if err == nil && run {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (e *env) startDist() error {
	tp := &http.Transport{MaxIdleConnsPerHost: 4}
	e.closers = append(e.closers, tp.CloseIdleConnections)
	d := &distEnv{wire: &wireCounter{next: tp}}
	for i := 0; i < 2; i++ {
		addr, err := e.listen(e.timing(spanWorker, laneWork, serve.NewWorker().Handler()))
		if err != nil {
			return err
		}
		d.addrs = append(d.addrs, addr)
	}
	for _, w := range e.sp.Dist {
		st := e.wfs[w.key()]
		coord, err := serve.NewCoordinator(
			serve.RunSpec{WF: st.WF, Scale: st.scale, MaxRows: st.cfg.MaxRows, CSS: st.cfg.CSS},
			serve.CoordinatorOptions{Addrs: d.addrs, Client: &http.Client{Transport: d.wire}},
		)
		if err != nil {
			return err
		}
		d.coords = append(d.coords, coord)
	}
	e.dist = d
	return nil
}

// distOp is dist_cycle_floor_s: the cycle with Config.Dispatcher set. The
// run must match the local reference on sinks, observed statistics and
// Rows, and must actually have executed remotely.
func (e *env) distOp(st *wfState, coord engine.BlockDispatcher) *op {
	key := st.key() + "/dist"
	return &op{key: key, group: "dist", run: func(rc *roundCtx) (time.Duration, error) {
		cfg := st.cfg
		cfg.Dispatcher = coord
		before := e.dist.wire.bytes.Load()
		id := e.tr.begin("core.Run", key, rc.round, rc.root, laneBench)
		if e.tr != nil {
			cfg.Dispatcher = &spanDispatcher{inner: coord, e: e, key: key, round: rc.round, parent: id}
		}
		t0 := time.Now()
		cy, err := core.Run(st.w.Graph, st.w.Catalog, st.db, cfg)
		d := time.Since(t0)
		e.tr.end(id)
		if err != nil {
			return 0, err
		}
		if err := st.check(cy); err != nil {
			return 0, err
		}
		if got := sinkSig(cy.Observed.Sinks); got != st.ref.sinks {
			return 0, fmt.Errorf("distributed sinks %s differ from the local run's %s", got, st.ref.sinks)
		}
		rep := cy.Observed.Dist
		if rep == nil || rep.FellBack || len(rep.Remote) == 0 {
			return 0, fmt.Errorf("run did not execute remotely: %+v", rep)
		}
		sent := e.dist.wire.bytes.Load() - before
		if st.wire >= 0 && sent != st.wire {
			return 0, fmt.Errorf("wire bytes = %d, previous round %d", sent, st.wire)
		}
		st.wire = sent
		if rc.round >= 0 {
			e.dist.dispatches += int64(len(rep.Remote))
			e.dist.reassigned += rep.Reassigned
		}
		return d, nil
	}}
}

// spanDispatcher is the traced run's wrapper around the coordinator: one
// span per RunBlock, whose id rides the context down to the wireCounter so
// the worker's handler span becomes its child. A RunBlock span's self time
// is then the coordinator's own overhead: encode, HTTP, lease, decode.
type spanDispatcher struct {
	inner  engine.BlockDispatcher
	e      *env
	key    string
	round  int
	parent int
}

func (d *spanDispatcher) DispatchRun(ctx context.Context, spec *engine.DispatchSpec) (engine.RunDispatch, error) {
	s, err := d.inner.DispatchRun(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &spanSession{RunDispatch: s, d: d}, nil
}

type spanSession struct {
	engine.RunDispatch
	d *spanDispatcher
}

func (s *spanSession) RunBlock(ctx context.Context, block int, upstream map[int]*data.Table) (*engine.RemoteBlock, error) {
	id := s.d.e.tr.begin(spanRunBlock, s.d.key, s.d.round, s.d.parent, laneBench)
	defer s.d.e.tr.end(id)
	return s.RunDispatch.RunBlock(context.WithValue(ctx, spanCtxKey{}, id), block, upstream)
}
