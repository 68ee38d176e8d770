package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Worker is the executor side of distributed block dispatch: an HTTP
// server that runs one chain of physical-plan blocks per request — a block
// and the blocks after it, each reading only the output of the one before
// it — and returns every block's boundary output, side effects and
// statistics shard but the outputs the chain read itself, which never
// leave the request.
//
// No result depends on what a worker remembers, which is what makes the
// coordinator's fault tolerance simple: a request carries (or
// deterministically implies) everything its chain needs — the suite
// workflow id and scale pin the generated data, the shipped join trees and
// observe list pin the compiled plan, and the chain's head reads no block's
// output — so any worker can run any chain, a reassigned chain produces
// byte-identical results on a different worker, and a worker that dies
// loses nothing but in-flight work.
type Worker struct {
	// maxBody caps a frame, as sent and as inflated (maxUploadBytes; tests
	// lower it).
	maxBody int64

	states onceMap[workerKey, *workerState]
}

// workerDatasets bounds the datasets a worker keeps, least recently used
// out first: any scale in (0, 1] is a dataset of its own, and a coordinator
// that sweeps scales would otherwise grow the worker without end. A dropped
// dataset regenerates identically when a block asks for it again. The
// dist-run benchmark keeps six.
const workerDatasets = 8

// NewWorker returns a worker with an empty workflow cache.
func NewWorker() *Worker {
	return &Worker{maxBody: maxUploadBytes, states: onceMap[workerKey, *workerState]{max: workerDatasets}}
}

// workerKey identifies one deterministic dataset: the suite workflow and
// its data scale.
type workerKey struct {
	wf    int
	scale float64
}

// workerState caches what every block of one workflow shares: the
// generated data, and the planning pipeline per CSS option set.
type workerState struct {
	wf    *suite.Workflow
	db    engine.DB
	plans onceMap[css.Options, *core.Plan]
}

// workerRunRequest is the header of a chain-execution request frame (see
// frame.go): plain JSON — stats.Stat, workflow.JoinTree and css.Options are
// flat exported structs that round-trip exactly. Nothing follows it.
type workerRunRequest struct {
	// WF and Scale pin the suite workflow and its deterministic dataset.
	WF    int     `json:"wf"`
	Scale float64 `json:"scale"`
	// MaxRows caps each block's intermediate rows (RunSpec.MaxRows; the
	// run-level guard stays with the coordinator's engine).
	MaxRows int64 `json:"max_rows,omitempty"`
	// Faults is the injector spec (faults.Parse form) so worker-side
	// operator/source/tap/budget faults reproduce the in-process pattern.
	Faults string `json:"faults,omitempty"`
	// CSS rebuilds the statistic universe when the run is instrumented.
	CSS css.Options `json:"css"`
	// Instrument, Observe and Metrics mirror engine.DispatchSpec, Observe
	// only as far as the chain's blocks observe; Metrics asks for each
	// block's metrics shard in the response header.
	Instrument bool         `json:"instrument,omitempty"`
	Observe    []stats.Stat `json:"observe,omitempty"`
	Metrics    bool         `json:"metrics,omitempty"`
	// Plans maps block index to join tree (nil = initial trees).
	Plans map[int]*workflow.JoinTree `json:"plans,omitempty"`
	// Block is the chain's head and Then the blocks after it, in order:
	// together exactly one of the workflow's chains (engine.Chains).
	Block int   `json:"block"`
	Then  []int `json:"then,omitempty"`
}

// errChain marks a request whose blocks are not one of its workflow's
// chains.
var errChain = errors.New("not one of the workflow's chains")

// wireFailedStat is a degraded statistic on the wire: the statistic plus
// its error rendered as text (errors do not round-trip as values).
type wireFailedStat struct {
	Stat stats.Stat `json:"stat"`
	Err  string     `json:"err"`
}

// workerRunResponse is one block's entry in the header of a chain's
// response frame, which lists them in chain order. Each entry's sections
// follow in the same order: the boundary output, for the chain's last block
// only, the materialized targets in the order listed here, and the
// statistics shard in the stats store format (version 4; empty when
// uninstrumented). A block that failed has an entry that says why, and no
// sections; it ends the chain.
type workerRunResponse struct {
	// Error is the block's execution error, as text; it is the only field
	// of its entry.
	Error string `json:"error,omitempty"`
	// Materialized names the block's materialized targets, sorted.
	Materialized []string `json:"materialized,omitempty"`
	// Sources is the row count of every source relation the block read,
	// by name, for the coordinator to check against its own data.
	Sources map[string]int `json:"sources,omitempty"`
	// Rows is the block's work-metric contribution.
	Rows int64 `json:"rows"`
	// Degraded lists statistics whose observation failed permanently.
	Degraded []wireFailedStat `json:"degraded,omitempty"`
	// Retries counts worker-side attempts repeated after transient faults.
	Retries int64 `json:"retries,omitempty"`
	// Metrics is the block's metrics shard — one entry per compiled node,
	// indexed by node ID — present only when the request asked for it.
	Metrics []physical.Metrics `json:"metrics,omitempty"`
}

// Handler returns the worker's endpoints.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/worker/health", wk.handleHealth)
	mux.HandleFunc("/v1/worker/run", wk.handleRun)
	return mux
}

// ListenAndServe runs the worker until the context is cancelled (SIGTERM
// is the intended stop), then drains and returns nil.
func (wk *Worker) ListenAndServe(ctx context.Context, addr string) error {
	return serveUntil(ctx, newHTTPServer(addr, wk.Handler()))
}

func (wk *Worker) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (wk *Worker) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := decodeRunRequest(http.MaxBytesReader(w, r.Body, wk.maxBody), wk.maxBody)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || overCap(err) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Sprintf("bad request body: %v", err))
		return
	}
	// Suite data is generated at scale × nominal rows: a scale past 1 can
	// ask for more rows than a slice holds.
	if !(req.Scale > 0 && req.Scale <= 1) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("scale %v outside (0, 1]", req.Scale))
		return
	}
	results, status, err := wk.runChain(r.Context(), req)
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	frame, err := encodeRunResponse(results, wk.maxBody)
	if err != nil {
		// A block output over the codec's cell cap or the frame cap is the
		// block's property, like a request over the body cap: 413 either way.
		status := http.StatusInternalServerError
		if overCap(err) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err.Error())
		return
	}
	w.Header().Set("Content-Type", frameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// runChain executes the request's chain through engine.RunChainCtx: one
// compiled plan, each output inside the chain handed to the next block and
// dropped from what is sent. A block that fails ends the chain, its error
// its result. The status return classifies failures of the request itself
// for the coordinator: 4xx are deterministic (retrying elsewhere cannot
// help), 5xx would be worker-local trouble.
func (wk *Worker) runChain(ctx context.Context, req *workerRunRequest) ([]blockResult, int, error) {
	st, err := wk.state(req.WF, req.Scale)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	flt, err := faults.Parse(req.Faults)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	p := st.plan(req.CSS)
	an, err := p.Analysis()
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	chain, err := requestChain(an, req)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	var res *css.Result
	var observe []stats.Stat
	if req.Instrument {
		// The physical compiler binds statistic taps through the CSS result.
		res, err = p.CSS()
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		observe = req.Observe
	}
	eng := engine.New(an, st.db, nil)
	eng.MaxRows = req.MaxRows
	eng.CollectMetrics = req.Metrics
	eng.Faults = flt
	rbs, err := eng.RunChainCtx(ctx, chain, req.Plans, res, observe)
	if err != nil && ctx.Err() != nil {
		// The coordinator hung up (lease expiry or run cancellation); the
		// status is moot, the response will not be read.
		return nil, http.StatusServiceUnavailable, ctx.Err()
	}
	results := make([]blockResult, len(rbs), len(chain))
	for i, rb := range rbs {
		results[i].rb = rb
	}
	if err != nil {
		results = append(results, blockResult{err: err})
	}
	return results, 0, nil
}

// requestChain is the blocks a request runs, in order: exactly one of its
// workflow's chains.
func requestChain(an *workflow.Analysis, req *workerRunRequest) ([]int, error) {
	chain := append([]int{req.Block}, req.Then...)
	if !slices.ContainsFunc(engine.Chains(an), func(c []int) bool { return slices.Equal(c, chain) }) {
		return nil, fmt.Errorf("blocks %v: %w", chain, errChain)
	}
	return chain, nil
}

// state returns (building once) the workflow's generated data. It is a
// pure function of (wf, scale), so every worker — and the coordinator's own
// in-process fallback — sees identical tables. A cold workflow's first
// block waits for its own data only: blocks of other workflows go ahead
// while it is generated.
func (wk *Worker) state(wf int, scale float64) (*workerState, error) {
	return wk.states.get(workerKey{wf: wf, scale: scale}, func() (*workerState, error) {
		return newWorkerState(wf, scale)
	})
}

func newWorkerState(wf int, scale float64) (*workerState, error) {
	w, err := suite.Get(wf)
	if err != nil {
		return nil, err
	}
	return &workerState{wf: w, db: w.Data(scale)}, nil
}

// plan returns the workflow's planning pipeline under one option set, the
// same Plan for every block that names it.
func (st *workerState) plan(opt css.Options) *core.Plan {
	p, _ := st.plans.get(opt, func() (*core.Plan, error) {
		return core.NewPlan(st.wf.Graph, st.wf.Catalog, opt), nil
	})
	return p
}
