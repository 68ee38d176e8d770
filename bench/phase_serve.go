package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/serve"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
)

// Sizes of the daemon phase, the same for every workload. Every served
// workflow gets two statistics streams, observed at serveScaleA and
// serveScaleB, so alternating uploads drift. hitBatch is the number of
// cache-hit requests per workflow and round (half optimize, half estimate);
// mixReads is the reads per workflow after the drifted observe in the
// 2-client closed loop.
const (
	serveScaleA = 0.002
	serveScaleB = 0.004
	hitBatch    = 100
	mixReads    = 12
)

// spanHeader carries the client span id to the timing middleware, so the
// handler span names the request that caused it. Only the traced run sets it.
const spanHeader = "X-Bench-Span"

// serveEnv is the daemon under test: serve.New over a scratch catalog on a
// loopback listener, and one keep-alive client.
type serveEnv struct {
	url     string
	client  *http.Client
	wfs     []*serveWF
	qerrMax float64 // largest qErrorMax any observe reported
	// scratch is a second catalog the traced run times Catalog.Put on.
	scratch *serve.Catalog
}

// serveWF is one served workflow with its two statistics streams.
type serveWF struct {
	name   string
	stores [2][]byte
	parsed [2]*stats.Store
	// cur is the stream the catalog currently holds; uploading the other
	// one drifts past the daemon's threshold.
	cur int
	// cached reports that the daemon's cache holds solutions for the
	// workflow, so the next drifted upload must invalidate at least one.
	cached           bool
	optBody, estBody []byte
}

func (w *serveWF) request() []byte { return []byte(`{"workflow":"` + w.name + `"}`) }

// listen serves h on a loopback port until the env closes.
func (e *env) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	e.closers = append(e.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// timing wraps a handler with the traced run's middleware: one span per
// request, parented to the client span named in the request header.
func (e *env) timing(name string, lane int, next http.Handler) http.Handler {
	if e.tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r) // the 2-client phase and health probes carry no span
			return
		}
		opKey, round := e.tr.meta(parent)
		id := e.tr.begin(name, opKey, round, parent, lane)
		next.ServeHTTP(w, r)
		e.tr.end(id)
	})
}

// observedStore runs one cycle of the workflow at the scale and returns the
// observed statistics as the canonical upload stream.
func (e *env) observedStore(id int, scale float64) ([]byte, *stats.Store, error) {
	w, err := suite.Get(id)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	db := w.Data(scale * jitter(e.o.seed))
	e.genSeconds += time.Since(t0).Seconds()
	cfg := core.DefaultConfig()
	cfg.MaxRows = e.sp.MaxRows
	cy, err := core.Run(w.Graph, w.Catalog, db, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s@%g: %w", w.Name, scale, err)
	}
	var buf bytes.Buffer
	if err := cy.SaveStats(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), cy.Observed.Observed, nil
}

func (e *env) startServe() error {
	sv := &serveEnv{}
	docs := map[string]*serve.Document{}
	for _, id := range e.sp.Serve {
		w, err := suite.Get(id)
		if err != nil {
			return err
		}
		docs[w.Name] = &serve.Document{Graph: w.Graph, Catalog: w.Catalog}
		sw := &serveWF{name: w.Name}
		if sw.stores[0], sw.parsed[0], err = e.observedStore(id, serveScaleA); err != nil {
			return err
		}
		// The pair must drift past the daemon's threshold, or alternating
		// uploads would never invalidate: widen the second scale until it does.
		scaleB := float64(serveScaleB)
		for try := 0; ; try++ {
			if sw.stores[1], sw.parsed[1], err = e.observedStore(id, scaleB); err != nil {
				return err
			}
			if stats.MeasureDrift(sw.parsed[0], sw.parsed[1]).Exceeds(serve.DefaultDriftThreshold) {
				break
			}
			if try == 3 {
				return fmt.Errorf("%s: streams at scales %g and %g drift %.0f%% or less", w.Name, serveScaleA, scaleB, 100*serve.DefaultDriftThreshold)
			}
			scaleB *= 2
		}
		sv.wfs = append(sv.wfs, sw)
	}
	dir, err := e.scratchDir("catalog")
	if err != nil {
		return err
	}
	cat, err := serve.OpenCatalog(dir)
	if err != nil {
		return err
	}
	srv, err := serve.New(cat, docs, serve.Options{})
	if err != nil {
		return err
	}
	if sv.url, err = e.listen(e.timing(spanHandler, laneServe, srv.Handler())); err != nil {
		return err
	}
	tp := &http.Transport{MaxIdleConnsPerHost: 4}
	sv.client = &http.Client{Transport: tp}
	e.closers = append(e.closers, tp.CloseIdleConnections)
	if e.tr != nil {
		sdir, err := e.scratchDir("catalog-put")
		if err != nil {
			return err
		}
		if sv.scratch, err = serve.OpenCatalog(sdir); err != nil {
			return err
		}
	}
	e.sv = sv
	// Seed uploads: generation 1 of every workflow.
	rc := &roundCtx{round: -e.o.warmups - 1, root: -1, quiet: true}
	for _, sw := range sv.wfs {
		e.tl.attempted++
		if _, _, err := e.observe(rc, sw.name+"/seed", sw, 0); err != nil {
			return fmt.Errorf("%s: seed upload: %w", sw.name, err)
		}
	}
	return nil
}

// reply is one 200 response, fully read.
type reply struct {
	cache string
	body  []byte
}

// post issues one request and times it from before the request is built
// until the body is fully read.
func (e *env) post(rc *roundCtx, opKey, path, ctype string, body []byte) (*reply, time.Duration, error) {
	id := -1
	if !rc.quiet {
		id = e.tr.begin(spanClient, opKey, rc.round, rc.root, laneBench)
	}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, e.sv.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", ctype)
	if id >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := e.sv.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	e.tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return &reply{cache: resp.Header.Get("X-Cache"), body: out}, d, nil
}

// observeReply is the part of the /v1/observe response the checks read.
type observeReply struct {
	Reoptimize  bool    `json:"reoptimize"`
	Invalidated int64   `json:"invalidated"`
	QErrorMax   float64 `json:"qErrorMax"`
}

// observe uploads one of the workflow's streams and makes it current.
func (e *env) observe(rc *roundCtx, opKey string, sw *serveWF, stream int) (*observeReply, time.Duration, error) {
	rep, d, err := e.post(rc, opKey, "/v1/observe?workflow="+sw.name, "application/octet-stream", sw.stores[stream])
	if err != nil {
		return nil, 0, err
	}
	var or observeReply
	if err := json.Unmarshal(rep.body, &or); err != nil {
		return nil, 0, fmt.Errorf("observe response: %w", err)
	}
	sw.cur = stream
	return &or, d, nil
}

// drifted uploads the stream the catalog does not hold and asserts that the
// daemon invalidated the workflow's cached solutions.
func (e *env) drifted(rc *roundCtx, opKey string, sw *serveWF) (time.Duration, float64, error) {
	or, d, err := e.observe(rc, opKey, sw, 1-sw.cur)
	if err != nil {
		return 0, 0, err
	}
	if !or.Reoptimize {
		return 0, 0, fmt.Errorf("drifted upload did not flag reoptimize")
	}
	if sw.cached && or.Invalidated < 1 {
		return 0, 0, fmt.Errorf("drifted upload invalidated %d cached solutions, want >= 1", or.Invalidated)
	}
	sw.cached = false
	return d, or.QErrorMax, nil
}

// read issues one optimize or estimate request and checks its cache state:
// a miss records the body, a hit must repeat it byte for byte.
func (e *env) read(rc *roundCtx, opKey string, sw *serveWF, estimate, wantHit bool) (time.Duration, error) {
	path, held := "/v1/optimize", &sw.optBody
	if estimate {
		path, held = "/v1/estimate", &sw.estBody
	}
	want := "miss"
	if wantHit {
		want = "hit"
	}
	rep, d, err := e.post(rc, opKey, path, "application/json", sw.request())
	if err != nil {
		return 0, err
	}
	if rep.cache != want {
		return 0, fmt.Errorf("%s: X-Cache = %q, want %q", path, rep.cache, want)
	}
	if wantHit {
		if !bytes.Equal(rep.body, *held) {
			return 0, fmt.Errorf("%s: hit body differs from the miss body that filled the cache", path)
		}
		return d, nil
	}
	*held = rep.body
	sw.cached = true
	return d, nil
}

// serveUnits lists, per workflow, one client's sequence: a drifted observe,
// an optimize miss, an estimate miss and a batch of hits. Writes sit beside
// reads on one cache and catalog, so work moved off the observe path shows
// up in the next miss or not at all. The traced run adds what only per-layer
// metrics read: an undrifted re-observe before the hits, a Catalog.Put, and
// the 2-client closed loop over all workflows.
func (e *env) serveUnits() [][]*op {
	var units [][]*op
	for _, sw := range e.sv.wfs {
		sw := sw
		key := func(s string) string { return sw.name + "/" + s }
		hits := 0
		ops := []*op{
			{key: key("observe"), group: "observe", run: func(rc *roundCtx) (time.Duration, error) {
				d, q, err := e.drifted(rc, key("observe"), sw)
				if q > e.sv.qerrMax {
					e.sv.qerrMax = q
				}
				return d, err
			}},
			{key: key("optimize_miss"), group: "optimize_miss", run: func(rc *roundCtx) (time.Duration, error) {
				return e.read(rc, key("optimize_miss"), sw, false, false)
			}},
			{key: key("estimate_miss"), group: "estimate_miss", run: func(rc *roundCtx) (time.Duration, error) {
				return e.read(rc, key("estimate_miss"), sw, true, false)
			}},
		}
		if e.tr != nil {
			ops = append(ops, &op{key: key("reobserve"), group: "reobserve", run: func(rc *roundCtx) (time.Duration, error) {
				or, d, err := e.observe(rc, key("reobserve"), sw, sw.cur)
				if err != nil {
					return 0, err
				}
				if or.Reoptimize || or.Invalidated != 0 {
					return 0, fmt.Errorf("undrifted upload invalidated %d solutions (reoptimize=%v)", or.Invalidated, or.Reoptimize)
				}
				return d, nil
			}})
		}
		// One hit request per sample, hitBatch samples per round,
		// alternating optimize and estimate.
		ops = append(ops, &op{key: key("hits"), group: "hit", reps: hitBatch, run: func(rc *roundCtx) (time.Duration, error) {
			hits++
			return e.read(rc, key("hits"), sw, hits%2 == 1, true)
		}})
		if e.tr != nil {
			ops = append(ops, e.catalogPutOp(sw))
		}
		units = append(units, ops)
	}
	if e.tr != nil {
		units = append(units, []*op{e.mixOp()})
	}
	return units
}

// mixOp is serve_mix_ops_s: a closed loop of two clients, each owning half
// the workflows and doing, per workflow, one drifted observe and mixReads
// reads (the first optimize and the first estimate miss, the rest hit). A
// client sends its next request only when the previous one completed.
func (e *env) mixOp() *op {
	requests := len(e.sv.wfs) * (1 + mixReads)
	return &op{key: "all/mix", group: "mix", per: requests, run: func(rc *roundCtx) (time.Duration, error) {
		quiet := &roundCtx{round: rc.round, root: -1, quiet: true}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(e.sv.wfs); i += 2 {
					sw := e.sv.wfs[i]
					if _, _, err := e.drifted(quiet, "", sw); err != nil {
						errs[c] = fmt.Errorf("%s: %w", sw.name, err)
						return
					}
					for j := 0; j < mixReads; j++ {
						if _, err := e.read(quiet, "", sw, j%2 == 1, j >= 2); err != nil {
							errs[c] = fmt.Errorf("%s: read %d: %w", sw.name, j, err)
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		d := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return d, nil // per request; the metric inverts the floor
	}}
}
