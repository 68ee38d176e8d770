// Package serve hosts the paper's design-once/execute-repeatedly loop in a
// long-running daemon. ETL runs are scheduled processes: the process that
// observed this run's statistics is gone by the time the next run is
// planned. The daemon is the piece that persists across runs — it keeps a
// workflow catalog (the built-in suite, or any injected set), a versioned
// on-disk statistics catalog fed by POST /v1/observe uploads, and serves
// plan and estimate queries from those statistics without ever executing a
// workflow itself.
//
// The daemon is a multi-tenant control plane (docs/SERVING.md):
//
//   - Solutions are cached in a size-aware LRU whose entries are bound to
//     the statistics generation they were solved from. A drifted upload
//     raises the workflow's generation bound, so a cached plan can never
//     outlive the snapshot that justified it — not even when the solve was
//     in flight while the invalidation ran. Below-threshold uploads keep
//     serving the standing solutions: the paper's "re-optimize at some user
//     defined interval" made data-driven, as a cache invalidation rule.
//   - Concurrent identical requests solve once (singleflight), and a
//     per-daemon solve limit with a bounded wait queue sheds overload as
//     typed 429 responses with Retry-After instead of queueing without
//     bound.
//
// Responses are byte-identical whether they came from the cache or a fresh
// solve; the X-Cache header is the only difference.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/schedule"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// maxUploadBytes bounds /v1/observe request bodies; the hardened
// stats.ReadStore already caps what it will allocate, this caps what the
// daemon will even buffer.
const maxUploadBytes = 64 << 20

// DefaultDriftThreshold invalidates cached solutions when any statistic
// moved more than 25% relative — a plan justified by statistics that far
// off is due for re-selection.
const DefaultDriftThreshold = 0.25

// Options tune the daemon.
type Options struct {
	// DriftThreshold is the max relative drift an upload may carry before
	// the workflow's cached solutions are invalidated (<= 0 selects
	// DefaultDriftThreshold).
	DriftThreshold float64
	// DisableCache turns the solution cache off: every request solves
	// (still singleflighted). Responses stay byte-identical either way.
	DisableCache bool
	// CacheBytes bounds the solution cache (<= 0 selects
	// DefaultCacheBytes). The LRU evicts the least-recently-used solution
	// when the budget is exceeded.
	CacheBytes int64
	// MaxSolves caps concurrent solver executions (0 = unlimited). Cache
	// hits and singleflight sharers do not occupy a slot.
	MaxSolves int
	// SolveQueue bounds how many requests may wait for a solve slot when
	// MaxSolves is set (< 0 selects DefaultSolveQueue; 0 sheds
	// immediately when every slot is busy).
	SolveQueue int
}

// Document is one servable workflow: the graph plus its relation catalog.
type Document struct {
	Graph   *workflow.Graph
	Catalog *workflow.Catalog
}

// unknownWorkflowError reports a request for a workflow the daemon does
// not serve.
type unknownWorkflowError struct{ Workflow string }

func (e *unknownWorkflowError) Error() string {
	return fmt.Sprintf("serve: unknown workflow %q", e.Workflow)
}

// Server hosts the workflow catalog and the statistics catalog behind an
// HTTP API.
type Server struct {
	catalog *Catalog
	opts    Options

	// flight deduplicates concurrent identical solves; cache holds the
	// solved response bytes, each entry bound to the statistics
	// generation it was solved from; adm is the concurrent-solve limiter.
	flight group
	cache  *solutionCache
	adm    *admission

	// plans holds each workflow's planning pipeline, one per document;
	// every request planning a workflow shares its Plan's stages.
	plans map[string]*core.Plan

	metrics *metrics
}

// New builds a server over a statistics catalog and a workflow set; a nil
// workflow map serves the built-in 30-workflow suite. No option value is
// invalid, so the error is always nil; the signature is one bench/ calls
// and is frozen with it (ROADMAP item 4).
func New(cat *Catalog, workflows map[string]*Document, opts Options) (*Server, error) {
	plans := make(map[string]*core.Plan, 30)
	if workflows == nil {
		for _, w := range suite.All() {
			plans[w.Name] = core.NewPlan(w.Graph, w.Catalog, css.DefaultOptions())
		}
	}
	for name, doc := range workflows {
		plans[name] = core.NewPlan(doc.Graph, doc.Catalog, css.DefaultOptions())
	}
	if opts.DriftThreshold <= 0 {
		opts.DriftThreshold = DefaultDriftThreshold
	}
	return &Server{
		catalog: cat,
		opts:    opts,
		plans:   plans,
		cache:   newSolutionCache(opts.CacheBytes),
		adm:     newAdmission(opts.MaxSolves, opts.SolveQueue),
		metrics: newMetrics(),
	}, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/workflows", s.handleWorkflows)
	mux.HandleFunc("/v1/observe", s.handleObserve)
	mux.HandleFunc("/v1/optimize", s.handleOptimize)
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	return mux
}

// ListenAndServe runs the daemon until the context is cancelled, then
// drains in-flight requests and returns nil on a clean shutdown — SIGTERM
// is how the daemon is meant to stop, not an error.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	return serveUntil(ctx, newHTTPServer(addr, s.Handler()))
}

// planFor returns the workflow's planning pipeline; an unknown name is a
// typed error.
func (s *Server) planFor(name string) (*core.Plan, error) {
	p, ok := s.plans[name]
	if !ok {
		return nil, &unknownWorkflowError{Workflow: name}
	}
	return p, nil
}

// solved runs the solver for (workflow, generation, key) at most once
// across concurrent requests and returns the response bytes, consulting
// the cache unless disabled. The bool reports a cache hit.
//
// gen is the statistics generation the caller read from the catalog and
// will solve from. It is folded into the flight key — two requests racing
// across a drift invalidation read different generations and must not
// share a solve — and it binds the cached entry: a Put from a superseded
// generation is rejected by the LRU's bound, so an observe-upload
// invalidation can never be undone by an in-flight solve.
func (s *Server) solved(ctx context.Context, workflow string, gen int, key string, solve func() ([]byte, error)) ([]byte, bool, error) {
	if !s.opts.DisableCache {
		if body, _, ok := s.cache.Get(workflow, key); ok {
			s.metrics.cache(true)
			return body, true, nil
		}
		s.metrics.cache(false)
	}
	fkey := fmt.Sprintf("%s|g%d|%s", workflow, gen, key)
	v, err, shared := s.flight.Do(fkey, func() (any, error) {
		release, err := s.adm.acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		body, err := solve()
		if err != nil {
			return nil, err
		}
		if !s.opts.DisableCache {
			if _, evicted := s.cache.Put(workflow, key, gen, body); evicted > 0 {
				s.metrics.evict(evicted)
			}
		}
		return body, nil
	})
	if err != nil {
		// Counted per request, not per flight: a sharer of a shed flight is
		// answered 429 as well.
		if errors.As(err, new(*busyError)) {
			s.metrics.shed()
		}
		return nil, false, err
	}
	s.metrics.solve(shared)
	return v.([]byte), false, nil
}

// invalidate drops a workflow's cached solutions and raises its
// generation bound to newBound, returning how many were dropped.
func (s *Server) invalidate(workflow string, newBound int) int64 {
	n := s.cache.Invalidate(workflow, newBound)
	s.metrics.invalidate(n)
	return n
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.render(w)
	// Live gauges read straight off the control plane's moving parts.
	entries, cacheBytes := s.cache.Stats()
	waiting, inflight := s.adm.depth()
	fmt.Fprintf(w, "etlopt_serve_cache_entries %d\n", entries)
	fmt.Fprintf(w, "etlopt_serve_cache_bytes %d\n", cacheBytes)
	fmt.Fprintf(w, "etlopt_serve_solve_queue_depth %d\n", waiting)
	fmt.Fprintf(w, "etlopt_serve_solves_inflight %d\n", inflight)
}

// workflowInfo is one row of GET /v1/workflows.
type workflowInfo struct {
	Workflow   string `json:"workflow"`
	Blocks     int    `json:"blocks"`
	HasStats   bool   `json:"hasStats"`
	Generation int    `json:"generation,omitempty"`
}

func (s *Server) handleWorkflows(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("workflows")
	names := make([]string, 0, len(s.plans))
	for n := range s.plans {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]workflowInfo, 0, len(names))
	for _, n := range names {
		info := workflowInfo{Workflow: n}
		if an, err := s.plans[n].Analysis(); err == nil {
			info.Blocks = len(an.Blocks)
		}
		if e, ok := s.catalog.get(n); ok {
			info.HasStats = true
			info.Generation = e.Generation
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// observeResponse reports a persisted upload.
type observeResponse struct {
	Workflow    string    `json:"workflow"`
	Generation  int       `json:"generation"`
	Count       int       `json:"count"`
	MemoryUnits int64     `json:"memoryUnits"`
	Drift       driftJSON `json:"drift"`
	Reoptimize  bool      `json:"reoptimize"`
	Invalidated int64     `json:"invalidated"`
	QErrorMax   float64   `json:"qErrorMax,omitempty"`
	// PayloadBytes is the size of this upload's binary stream; /metrics
	// tracks it per workflow.
	PayloadBytes int64 `json:"payloadBytes"`
}

type driftJSON struct {
	MaxRel  float64 `json:"maxRel"`
	MeanRel float64 `json:"meanRel"`
	Shared  int     `json:"shared"`
	OnlyOld int     `json:"onlyOld"`
	OnlyNew int     `json:"onlyNew"`
}

// handleObserve ingests a statistics upload: the body is the canonical
// binary stream SaveStats/WriteTo produce (and `etlopt run -save-stats`
// writes). The hardened ReadStore validates it end to end before anything
// touches disk; a valid stream becomes the workflow's next generation, and
// drift past the threshold invalidates the workflow's cached solutions.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("observe")
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	name := r.URL.Query().Get("workflow")
	if _, ok := s.plans[name]; !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown workflow %q", name))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		// Only an actually oversized body is 413; any other read failure —
		// a client that disconnected mid-upload, a broken transfer — is a
		// plain bad request.
		if errors.As(err, new(*http.MaxBytesError)) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("upload exceeds %d bytes", maxUploadBytes))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading upload: %v", err))
		return
	}
	store, err := stats.ReadStore(bytes.NewReader(body))
	if err != nil {
		// Corrupt uploads are client errors and must name the byte offset
		// (ReadStore's errors do), so a broken exporter can be debugged from the
		// response alone.
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}

	var prev *stats.Store
	if e, ok := s.catalog.get(name); ok {
		prev = e.Store
	}
	entry, drift, hadPrev, err := s.catalog.Put(name, store)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := observeResponse{
		Workflow:     name,
		Generation:   entry.Generation,
		Count:        entry.Count,
		MemoryUnits:  entry.MemoryUnits,
		PayloadBytes: int64(len(body)),
		Drift: driftJSON{
			MaxRel: drift.MaxRel, MeanRel: drift.MeanRel,
			Shared: drift.Shared, OnlyOld: drift.OnlyOld, OnlyNew: drift.OnlyNew,
		},
	}
	// First generation, or drift past threshold: whatever was solved before
	// no longer stands. Raising the cache's generation bound (not just
	// emptying it) is what makes this stick against in-flight solves.
	if !hadPrev || drift.Exceeds(s.opts.DriftThreshold) {
		resp.Reoptimize = true
		resp.Invalidated = s.invalidate(name, entry.Generation)
	}
	s.metrics.observe(name, entry.Generation, drift.MaxRel, int64(len(body)))
	if hadPrev {
		if res, err := s.plans[name].CSS(); err == nil {
			if q, ok := maxQError(res, prev, store); ok {
				resp.QErrorMax = q
				s.metrics.qerror(name, q)
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxQError compares the previous generation's derived required
// cardinalities against the new one's — LEO-style feedback: how wrong were
// the estimates the current plans were built on, taking the fresh
// observations as truth. ok is false when no required statistic was
// derivable from both generations.
func maxQError(res *css.Result, prev, cur *stats.Store) (float64, bool) {
	estPrev := estimate.New(res, prev)
	estCur := estimate.New(res, cur)
	q, ok := 0.0, false
	for _, st := range res.Required {
		pv, err1 := estPrev.Value(st)
		cv, err2 := estCur.Value(st)
		if err1 != nil || err2 != nil || pv.Hist != nil || cv.Hist != nil {
			continue
		}
		e, a := float64(pv.Scalar), float64(cv.Scalar)
		if e <= 0 || a <= 0 {
			continue
		}
		r := e / a
		if r < 1 {
			r = 1 / r
		}
		if r > q {
			q = r
		}
		ok = true
	}
	return q, ok
}

// optimizeRequest asks for cost-based plans from the cataloged statistics.
type optimizeRequest struct {
	Workflow string `json:"workflow"`
	// AllowPartial optimizes the derivable subset of a partial store,
	// leaving affected blocks on their initial plans (core.Config.
	// AllowPartialStats).
	AllowPartial bool `json:"allowPartial,omitempty"`
}

// optimizeResponse mirrors what `etlopt run` prints per block, as data.
type optimizeResponse struct {
	Workflow         string     `json:"workflow"`
	Generation       int        `json:"generation"`
	TotalCost        float64    `json:"totalCost"`
	TotalInitialCost float64    `json:"totalInitialCost"`
	Improvement      float64    `json:"improvement"`
	Fallbacks        []int      `json:"fallbacks,omitempty"`
	Blocks           []planJSON `json:"blocks"`
}

type planJSON struct {
	Block       int     `json:"block"`
	Designed    string  `json:"designed,omitempty"`
	Optimized   string  `json:"optimized,omitempty"`
	Cost        float64 `json:"cost"`
	InitialCost float64 `json:"initialCost"`
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("optimize")
	var req optimizeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if _, ok := s.plans[req.Workflow]; !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown workflow %q", req.Workflow))
		return
	}
	entry, ok := s.catalog.get(req.Workflow)
	s.metrics.catalog(ok)
	if !ok {
		httpError(w, http.StatusNotFound,
			fmt.Sprintf("no statistics for workflow %q: POST a store to /v1/observe first", req.Workflow))
		return
	}

	// The cache key deliberately omits the generation: an upload below the
	// drift threshold keeps serving the solution it did not meaningfully
	// change (the response's generation field names the generation it was
	// solved from); a drifted upload raises the workflow's generation
	// bound instead, which both empties the cache and blocks late inserts
	// from solves still in flight against the superseded store.
	key := fmt.Sprintf("optimize|partial=%v", req.AllowPartial)
	body, hit, err := s.solved(r.Context(), req.Workflow, entry.Generation, key, func() ([]byte, error) {
		return s.solveOptimize(req, entry)
	})
	if err != nil {
		var busy *busyError
		if errors.As(err, &busy) {
			tooBusy(w, busy)
			return
		}
		var miss *core.MissingStatsError
		if errors.As(err, &miss) {
			// The cataloged store cannot support a full optimization: a
			// conflict between what is stored and what was asked, not a
			// server fault.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":   miss.Error(),
				"missing": miss.Labels,
				"blocks":  miss.Blocks,
			})
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeCached(w, body, hit)
}

// solveOptimize produces the optimize response body from one catalog
// entry.
func (s *Server) solveOptimize(req optimizeRequest, entry *Entry) ([]byte, error) {
	p, err := s.planFor(req.Workflow)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.AllowPartialStats = req.AllowPartial
	_, plans, err := p.Optimize(entry.Store, cfg)
	if err != nil {
		return nil, err
	}
	an, err := p.Analysis()
	if err != nil {
		return nil, err
	}
	resp := optimizeResponse{
		Workflow:         req.Workflow,
		Generation:       entry.Generation,
		TotalCost:        plans.TotalCost,
		TotalInitialCost: plans.TotalInitialCost,
		Improvement:      plans.Improvement(),
		Fallbacks:        plans.Fallbacks,
	}
	for bi, blk := range an.Blocks {
		bp, ok := plans.Plans[bi]
		if !ok {
			continue
		}
		pj := planJSON{Block: bi, Cost: bp.Cost, InitialCost: bp.InitialCost}
		if blk.Initial != nil {
			pj.Designed = blk.Initial.Render(blk)
		}
		if bp.Tree != nil {
			pj.Optimized = bp.Tree.Render(blk)
		}
		resp.Blocks = append(resp.Blocks, pj)
	}
	sort.Slice(resp.Blocks, func(i, j int) bool { return resp.Blocks[i].Block < resp.Blocks[j].Block })
	return marshalJSON(resp)
}

// estimateRequest asks for the essential-statistics selection (the design
// step) and, when statistics are cataloged, the derived SE cardinalities.
type estimateRequest struct {
	Workflow string `json:"workflow"`
	// Method is the selection solver: "exact" (default) or "greedy"; any
	// other name, "lp" included, is answered 400.
	Method string `json:"method,omitempty"`
	// Budget > 0 additionally plans the Section 6.1 multi-run observation
	// schedule under a per-run memory budget.
	Budget int64 `json:"budget,omitempty"`
}

type estimateResponse struct {
	Workflow  string        `json:"workflow"`
	Method    string        `json:"method"`
	Selection selectionJSON `json:"selection"`
	// ScheduledRuns is the number of budgeted observation runs (0 without a
	// budget).
	ScheduledRuns int `json:"scheduledRuns,omitempty"`
	// Generation is the statistics generation the cardinalities derive from
	// (0 when the catalog has none).
	Generation    int        `json:"generation,omitempty"`
	Coverage      *coverage  `json:"coverage,omitempty"`
	Cardinalities []cardJSON `json:"cardinalities,omitempty"`
}

type selectionJSON struct {
	Cost    float64  `json:"cost"`
	Memory  int64    `json:"memory"`
	Optimal bool     `json:"optimal"`
	Observe []string `json:"observe"`
}

type coverage struct {
	Derivable int `json:"derivable"`
	Total     int `json:"total"`
}

type cardJSON struct {
	Block int    `json:"block"`
	SE    string `json:"se"`
	Card  int64  `json:"card"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("estimate")
	var req estimateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if _, ok := s.plans[req.Workflow]; !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown workflow %q", req.Workflow))
		return
	}
	method, err := selector.ParseMethod(req.Method)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Method == "" {
		req.Method = "exact"
	}
	if req.Budget < 0 {
		httpError(w, http.StatusBadRequest, "budget must be >= 0")
		return
	}

	entry, hasStats := s.catalog.get(req.Workflow)
	s.metrics.catalog(hasStats)
	gen := 0
	if hasStats {
		gen = entry.Generation
	}
	key := fmt.Sprintf("estimate|%s|b%d", req.Method, req.Budget)
	body, hit, err := s.solved(r.Context(), req.Workflow, gen, key, func() ([]byte, error) {
		return s.solveEstimate(req, method, entry, hasStats)
	})
	if err != nil {
		var busy *busyError
		if errors.As(err, &busy) {
			tooBusy(w, busy)
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeCached(w, body, hit)
}

// solveEstimate produces the estimate response body.
func (s *Server) solveEstimate(req estimateRequest, method selector.Method, entry *Entry, hasStats bool) ([]byte, error) {
	p, err := s.planFor(req.Workflow)
	if err != nil {
		return nil, err
	}
	u, err := p.Universe()
	if err != nil {
		return nil, err
	}
	sel, err := p.Selection(method)
	if err != nil {
		return nil, err
	}
	res := u.Res
	resp := estimateResponse{
		Workflow: req.Workflow,
		Method:   req.Method,
		Selection: selectionJSON{
			Cost:    sel.Cost,
			Memory:  sel.Memory,
			Optimal: sel.Optimal,
			Observe: make([]string, 0, len(sel.Observe)),
		},
	}
	if hasStats {
		resp.Generation = entry.Generation
	}
	for _, st := range sel.Observe {
		blk := res.Analysis.Blocks[st.Target.Block]
		resp.Selection.Observe = append(resp.Selection.Observe,
			fmt.Sprintf("block %d: %s", st.Target.Block, st.Label(blk)))
	}
	if req.Budget > 0 {
		plan, err := schedule.Build(u, req.Budget)
		if err != nil {
			return nil, err
		}
		resp.ScheduledRuns = len(plan.Runs)
	}
	if hasStats {
		resp.Coverage = &coverage{}
		est := estimate.New(res, entry.Store)
		for bi, sp := range res.Spaces {
			blk := res.Analysis.Blocks[bi]
			for _, se := range sp.SEs {
				resp.Coverage.Total++
				card, err := est.CardOf(bi, se)
				if err != nil {
					continue // underivable: in Total, not in Derivable
				}
				resp.Coverage.Derivable++
				resp.Cardinalities = append(resp.Cardinalities,
					cardJSON{Block: bi, SE: se.Label(blk), Card: card})
			}
		}
	}
	return marshalJSON(resp)
}

// --- plumbing ---

// decodeJSON strictly decodes a bounded JSON request body straight off the
// connection; false means the error response has been written.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// tooBusy writes the typed 429: a Retry-After header plus a JSON body
// naming the backoff, so shed clients know this is load, not failure.
func tooBusy(w http.ResponseWriter, busy *busyError) {
	secs := int(math.Ceil(busy.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":      busy.Error(),
		"retryAfter": secs,
	})
}

// marshalJSON renders a response deterministically (struct field order plus
// explicitly sorted slices), so cached and freshly solved responses are
// byte-identical.
func marshalJSON(v any) ([]byte, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

func writeCached(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalJSON(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
