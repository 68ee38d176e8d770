// Package engine executes ETL workflows over materialized tables, the way
// a batch ETL runtime does. One Engine interprets the shared physical-plan
// IR (internal/physical) over column vectors: the compiler lowers each
// optimizable block's input chains, join tree (the designed initial order
// or any reordering supplied by the optimizer) and pinned top operators
// into a typed operator DAG with statistic taps already bound to their
// observation points, and the engine evaluates that DAG whole batches at a
// time, node by node (runVecBlock, the one block interpreter).
// Row-at-a-time semantics live outside the product, in internal/wftest's
// reference evaluator, which the equivalence suite compares the engine
// against.
//
// The engine realizes Sections 3.2.5–3.2.6 of the paper: execution can be
// instrumented with per-point statistic collectors (tuple counters,
// distinct counters, exact frequency histograms, and reject-link
// observation) so a single execution of the initial plan gathers the
// statistics chosen by the selector.
package engine

import (
	"context"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// DB maps base relation names to materialized tables.
type DB = physical.DB

// Engine executes workflows over column vectors, batch-at-a-time. Results,
// observed statistics and the work metric are identical at any worker
// count.
type Engine struct {
	An  *workflow.Analysis
	DB  DB
	Reg physical.Registry
	// Workers bounds how many independent blocks execute concurrently
	// (the block dependency DAG is derived from the analysis); each block
	// itself runs on one goroutine. Values <= 1 run sequentially.
	Workers int
	// MaxRows caps the total intermediate rows one run may produce (the
	// work metric Result.Rows); exceeding it aborts the run with a clear
	// error instead of letting a skewed join order blow up memory. 0 (the
	// default) runs unguarded.
	MaxRows int64
	// CollectMetrics populates per-operator runtime metrics
	// (physical.Node.Metrics) during the run and attaches the snapshot to
	// Result.Metrics. Off by default: the hot paths skip all timing work.
	CollectMetrics bool
	// Faults injects deterministic failures at operator, source, tap and
	// budget sites (nil, the default, injects nothing and costs nothing).
	Faults *faults.Injector
	// Dispatch, when non-nil, places blocks on remote workers through the
	// dispatcher instead of local goroutines (see dispatch.go). It composes
	// with every other field: workers are told which knobs to mirror, and
	// ship back the metrics CollectMetrics reads.
	Dispatch BlockDispatcher
}

// New returns an engine for the analyzed workflow over the database.
func New(an *workflow.Analysis, db DB, reg physical.Registry) *Engine {
	if reg == nil {
		reg = physical.DefaultRegistry()
	}
	return &Engine{An: an, DB: db, Reg: reg}
}

// NewStream returns New(an, db, reg).
//
// Deprecated: the streaming strategy is gone; the name stays only because
// bench/ calls it (ROADMAP item 4 removes both).
func NewStream(an *workflow.Analysis, db DB, reg physical.Registry) *Engine { return New(an, db, reg) }

// Result is the outcome of one workflow execution.
type Result struct {
	// BlockOut holds each block's boundary output; the entry of one that
	// stayed inside its chain on a worker (see DispatchSpec.Chains) is nil.
	BlockOut map[int]*data.Table
	// Sinks holds the target record-sets by name.
	Sinks map[string]*data.Table
	// Materialized holds explicitly materialized intermediate results by
	// target name, including the reject links of reject joins.
	Materialized map[string]*data.Table
	// Observed holds the collected statistics when the run was
	// instrumented (nil otherwise).
	Observed *stats.Store
	// Rows counts tuples processed across all operators (a simple work
	// metric used to compare plan costs empirically).
	Rows int64
	// Metrics is the per-operator metrics snapshot when the engine ran
	// with CollectMetrics (nil otherwise).
	Metrics *physical.RunMetrics
	// Degraded lists statistics whose observation failed permanently (the
	// run itself completed); empty on a clean run. Ordered canonically.
	Degraded []FailedStat
	// Retries counts block attempts repeated after transient faults.
	Retries int64
	// Dist records block placement when the run executed through a
	// dispatcher (nil for purely local runs).
	Dist *DistReport
}

// RunPlans executes the workflow using the supplied join tree per block
// (nil map or missing entry = the initial tree), instrumented with the
// given statistics when res is non-nil. Each statistic is observed wherever
// the executed trees produce its target (see physical.Compile); one whose
// target they do not produce is absent from the store.
func (e *Engine) RunPlans(plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(context.Background(), plans, res, observe)
}

// RunPlansCtx is RunPlans under a context: cancellation (or deadline
// expiry) stops the run promptly. On error the partial result — completed
// metrics and block outputs — is returned alongside it, so callers can
// flush what the run did finish.
func (e *Engine) RunPlansCtx(ctx context.Context, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	return e.runPlans(ctx, plans, res, observe)
}

func (e *Engine) runPlans(ctx context.Context, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) (*Result, error) {
	plan, err := physical.Compile(e.An, e.DB, physical.Options{
		Plans: plans, Res: res, Observe: observe, Reg: e.Reg,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		BlockOut:     make(map[int]*data.Table),
		Sinks:        make(map[string]*data.Table),
		Materialized: make(map[string]*data.Table),
	}
	var col *collector
	if res != nil {
		col = newCollector()
		out.Observed = col.store
	}
	env := newRunEnv(ctx, newRowBudget(e.MaxRows), e.Faults)
	err = e.runBlocks(plan, env, out, col, &DispatchSpec{
		Plans: plans, Observe: observe, Instrument: res != nil,
		Faults: e.Faults.String(), Metrics: e.CollectMetrics, DB: e.DB,
	})
	out.Retries = env.retries.Load()
	out.Degraded = col.failedStats()
	if e.CollectMetrics {
		out.Metrics = plan.MetricsSnapshot()
	}
	if err != nil {
		// The partial result rides along: completed block outputs, the
		// metrics of finished operators, the statistics observed so far.
		return out, err
	}
	if err := routeSinks(e.An, out); err != nil {
		return out, err
	}
	return out, nil
}
