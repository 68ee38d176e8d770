package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Worker is the executor side of distributed block dispatch: an HTTP
// server that runs exactly one physical-plan block per request and returns
// the block's boundary output, side effects and statistics shard.
//
// No result depends on what a worker remembers, which is what makes the
// coordinator's fault tolerance simple: a block request carries (or
// deterministically implies) everything its execution needs — the suite
// workflow id and scale pin the generated data, the shipped join trees and
// observe list pin the compiled plan, and each upstream output is named by
// the request that made it — so any worker can run any block, a reassigned
// block produces byte-identical results on a different worker, and a
// worker that dies loses nothing but in-flight work and what it held. What
// it holds is soft state: a request that says Hold leaves its output here,
// under the request's key, and a later request names it; a worker that
// does not hold what a request names answers 409 with the keys it misses,
// and the coordinator sends it the requests that make them. An output over
// the store's bound is sent instead of held, and the coordinator, which
// then has no request that names it, runs the block that reads it
// in-process.
type Worker struct {
	// maxBody caps a frame, as sent and as inflated (maxUploadBytes; tests
	// lower it).
	maxBody int64

	states   onceMap[workerKey, *workerState]
	resident residentStore
}

// NewWorker returns a worker with an empty workflow cache.
func NewWorker() *Worker {
	return &Worker{maxBody: maxUploadBytes, resident: residentStore{max: residentBytes}}
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

// workerRunRequest is the header of a block-execution request frame (see
// frame.go): plain JSON — stats.Stat, workflow.JoinTree and css.Options are
// flat exported structs that round-trip exactly. Nothing follows it.
type workerRunRequest struct {
	// WF and Scale pin the suite workflow and its deterministic dataset.
	WF    int     `json:"wf"`
	Scale float64 `json:"scale"`
	// MaxRows caps this block's intermediate rows (RunSpec.MaxRows; the
	// run-level guard stays with the coordinator's engine).
	MaxRows int64 `json:"max_rows,omitempty"`
	// Faults is the injector spec (faults.Parse form) so worker-side
	// operator/source/tap/budget faults reproduce the in-process pattern.
	Faults string `json:"faults,omitempty"`
	// CSS rebuilds the statistic universe when the run is instrumented.
	CSS css.Options `json:"css"`
	// Instrument, Observe and Metrics mirror engine.DispatchSpec; Metrics
	// asks for the block's metrics shard in the response header.
	Instrument bool         `json:"instrument,omitempty"`
	Observe    []stats.Stat `json:"observe,omitempty"`
	Metrics    bool         `json:"metrics,omitempty"`
	// Plans maps block index to join tree (nil = initial trees).
	Plans map[int]*workflow.JoinTree `json:"plans,omitempty"`
	// Block is the block to execute.
	Block int `json:"block"`
	// Resident lists, by ascending block, every block it reads from: their
	// outputs are in this worker's store, named by key.
	Resident []residentRef `json:"resident,omitempty"`
	// Hold asks the worker to keep the block's output under this request's
	// key and answer without it.
	Hold bool `json:"hold,omitempty"`

	// key is the SHA-256 of the payload the request was read from.
	key digest
}

// residentRef names one upstream block's held output by its key: the
// SHA-256 of the payload of the request that made it (digest.String form).
type residentRef struct {
	Block  int    `json:"block"`
	SHA256 string `json:"sha256"`
}

// missingResident is the 409 body: the keys of a request's resident refs
// this worker's store does not hold, in request order.
type missingResident struct {
	Error   string   `json:"error"`
	Missing []string `json:"missing"`
}

// wireFailedStat is a degraded statistic on the wire: the statistic plus
// its error rendered as text (errors do not round-trip as values).
type wireFailedStat struct {
	Stat stats.Stat `json:"stat"`
	Err  string     `json:"err"`
}

// workerRunResponse is the header of a block's response frame. The
// sections after it are the boundary output unless it is held, the
// materialized targets in the order listed here, and the statistics shard
// in the stats store format (version 4; empty when uninstrumented).
type workerRunResponse struct {
	// Held reports that the output stays in this worker's store under the
	// request's key, and is not in the frame.
	Held bool `json:"held,omitempty"`
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
	held := make(map[int]*data.Late, len(req.Resident))
	if missing := wk.resident.take(req.Resident, held); missing != nil {
		writeJSON(w, http.StatusConflict, missingResident{
			Error:   fmt.Sprintf("%d resident upstream output(s) not held here; send the requests that make them", len(missing)),
			Missing: missing,
		})
		return
	}
	rb, status, err := wk.runBlock(r.Context(), req, held)
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	// Kept before the response leaves, so a request that names it can only
	// arrive after it is here; one over the store's bound is sent instead.
	if req.Hold && wk.resident.put(req.key, rb.LateOut) {
		rb.LateOut = nil
	}
	frame, err := encodeRunResponse(rb, wk.maxBody)
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

// runBlock executes one block per the request. The status return
// classifies failures for the coordinator: 4xx are deterministic (bad
// request or the block's own execution error — retrying elsewhere cannot
// help), 5xx would be worker-local trouble.
func (wk *Worker) runBlock(ctx context.Context, req *workerRunRequest, held map[int]*data.Late) (*engine.RemoteBlock, int, error) {
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
	rb, err := eng.RunBlockCtx(ctx, req.Block, req.Plans, res, observe, held)
	if err != nil {
		if ctx.Err() != nil {
			// The coordinator hung up (lease expiry or run cancellation);
			// the status is moot, the response will not be read.
			return nil, http.StatusServiceUnavailable, ctx.Err()
		}
		return nil, http.StatusUnprocessableEntity, err
	}
	return rb, 0, nil
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
