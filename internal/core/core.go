// Package core ties the whole framework of the paper together into the
// optimization loop of Figure 2: analyze the workflow into optimizable
// blocks, enumerate sub-expressions, generate candidate statistics sets,
// select a minimum-cost observable set, run the initial plan instrumented
// to collect it, and finally cost-optimize every block with the (exact)
// derived cardinalities. The loop can be repeated as data drifts: each
// optimized run is itself re-instrumented, keeping statistics current.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Config tunes one optimization cycle.
type Config struct {
	// CSS switches the union–division rules J4/J5; every other rule family
	// follows the workflow itself.
	CSS css.Options
	// Method selects the statistics-selection solver.
	Method selector.Method
	// CostModel is read by nothing: C_out is the only plan cost.
	//
	// Deprecated: the field stays only because bench/ passes it on
	// (ROADMAP item 4 removes it with optimizer.CostModel).
	CostModel optimizer.CostModel
	// Streaming is read by nothing.
	//
	// Deprecated: the streaming strategy is gone; the field stays only
	// because bench/ sets it (ROADMAP item 4 removes both).
	Streaming bool
	// Workers bounds how many independent blocks of one execution run
	// concurrently, each on its own goroutine. Values <= 1 execute
	// sequentially; observed statistics are identical either way.
	Workers int
	// MaxRows caps the total intermediate rows any single execution may
	// produce; a run exceeding it aborts with a clear
	// intermediate-cardinality-guard error instead of blowing up memory on
	// skewed joins. 0 runs unguarded.
	MaxRows int64
	// CollectMetrics turns on per-operator runtime metrics during
	// execution and builds the estimate-feedback (q-error) report after
	// the instrumented run. Off by default: the hot paths stay timing-free.
	CollectMetrics bool
	// Faults injects deterministic failures into every execution of the
	// cycle (nil, the default, injects nothing). Transient faults retry at
	// block granularity; permanent tap faults degrade the observation and
	// walk the cycle down the degradation ladder instead of aborting it.
	Faults *faults.Injector
	// AllowPartialStats lets Plan.Optimize proceed when the saved store
	// cannot derive every SE cardinality (a partial save from a
	// degraded or cancelled run): blocks whose cardinalities are
	// underivable keep their initial plans (reported in Result.Fallbacks)
	// instead of the whole optimization failing with a MissingStatsError.
	AllowPartialStats bool
	// Dispatcher, when non-nil, places every execution's blocks on remote
	// worker processes (distributed mode; see internal/engine's dispatch
	// seam and internal/serve's Coordinator). It changes where blocks run
	// and nothing else: results, observed statistics, the work metric and
	// CollectMetrics reports are byte-identical to local runs, and the
	// fields a worker must mirror — Faults, CollectMetrics — reach it
	// through the engine, set once.
	Dispatcher engine.BlockDispatcher
}

// DefaultConfig enables every rule family with the exact solver and the
// C_out plan metric.
func DefaultConfig() Config {
	return Config{CSS: css.DefaultOptions(), Method: selector.MethodExact, CostModel: optimizer.Cout}
}

// Cycle is the outcome of one optimization cycle over a workflow.
type Cycle struct {
	Analysis  *workflow.Analysis
	CSS       *css.Result
	Selection *selector.Selection
	// Observed is the instrumented initial run.
	Observed *engine.Result
	// Estimator derives any statistic from the observations.
	Estimator *estimate.Estimator
	// Plans is the cost-based optimization outcome.
	Plans *optimizer.Result
	// Optimized is the re-execution under the optimized plans (nil until
	// RunOptimized is called).
	Optimized *engine.Result
	// Metrics is the instrumented run's per-operator metrics snapshot
	// (nil unless Config.CollectMetrics was set).
	Metrics *physical.RunMetrics
	// Feedback compares the instrumented run's actual cardinalities
	// against the estimates derived from the selected statistics (nil
	// unless Config.CollectMetrics was set).
	Feedback *estimate.Feedback
	// Degradation reports how the cycle routed around permanently failed
	// observations (nil on a clean run): the alternate covering CSS or
	// pay-as-you-go rung used, and any blocks left on initial plans.
	Degradation *Degradation
	// Timings records the wall-clock duration of each phase.
	Timings Timings

	cfg Config
	db  engine.DB
}

// Timings holds per-phase wall-clock durations of a cycle.
type Timings struct {
	Analyze, GenerateCSS, Select, ObserveRun, Optimize time.Duration
}

// NewExecutor builds the engine the configuration asks for: every
// execution of a cycle, and of a schedule, runs on one.
func NewExecutor(an *workflow.Analysis, db engine.DB, cfg Config) *engine.Engine {
	eng := engine.New(an, db, nil)
	eng.Workers = cfg.Workers
	eng.MaxRows = cfg.MaxRows
	eng.CollectMetrics = cfg.CollectMetrics
	eng.Faults = cfg.Faults
	eng.Dispatch = cfg.Dispatcher
	return eng
}

// Run executes one full cycle (steps 1–7 of Figure 2) over the workflow and
// database: the initial plan runs once, instrumented with the selected
// statistics, and the returned cycle carries the optimized per-block plans.
func Run(g *workflow.Graph, cat *workflow.Catalog, db engine.DB, cfg Config) (*Cycle, error) {
	return RunCtx(context.Background(), g, cat, db, cfg)
}

// RunCtx is Run under a context: cancellation (or deadline expiry) stops
// the cycle's executions promptly. On error the partial cycle — whatever
// phases completed, including the partial instrumented run and its metrics
// — rides alongside, so callers can flush what the cycle did produce.
//
// Observation failures that are permanent but survivable (failed taps,
// mis-declared statistics) do not error: the cycle completes via the
// degradation ladder and reports how in Cycle.Degradation.
func RunCtx(ctx context.Context, g *workflow.Graph, cat *workflow.Catalog, db engine.DB, cfg Config) (*Cycle, error) {
	cy := &Cycle{cfg: cfg, db: db}
	p := NewPlan(g, cat, cfg.CSS)
	an, err := p.Analysis()
	if err != nil {
		return cy, err
	}
	cy.Analysis = an
	res, err := p.CSS()
	if err != nil {
		return cy, err
	}
	cy.CSS = res
	u, err := p.Universe()
	if err != nil {
		return cy, err
	}
	sel, err := p.Selection(cfg.Method)
	if err != nil {
		return cy, err
	}
	cy.Selection = sel
	cy.Timings = p.Timings(cfg.Method)

	start := time.Now()
	eng := NewExecutor(an, db, cfg)
	run, err := eng.RunPlansCtx(ctx, nil, res, sel.Observe)
	cy.Observed = run
	if run != nil {
		cy.Metrics = run.Metrics
	}
	if err != nil {
		return cy, fmt.Errorf("core: instrumented run: %w", err)
	}
	cy.Timings.ObserveRun = time.Since(start)

	if len(run.Degraded) > 0 {
		deg, err := degrade(ctx, cy, eng, u, res, run.Observed, run.Degraded)
		if err != nil {
			return cy, fmt.Errorf("core: degraded observation: %w", err)
		}
		cy.Degradation = deg
	}

	// A degraded run optimizes what its statistics derive and leaves the
	// other blocks on their initial plans.
	start = time.Now()
	ocfg := cfg
	ocfg.AllowPartialStats = cy.Degradation != nil
	est, plans, err := p.Optimize(run.Observed, ocfg)
	if err != nil {
		return cy, err
	}
	cy.Estimator = est
	if cy.Degradation != nil {
		cy.Degradation.FallbackBlocks = plans.Fallbacks
	}
	cy.Plans = plans
	cy.Timings.Optimize = time.Since(start)

	if run.Metrics != nil {
		cy.Feedback = estimate.BuildFeedback(res, cy.Estimator, run.Metrics.Actuals())
	}
	return cy, nil
}

// RunOptimized executes the workflow under the optimized per-block plans
// and records the result in the cycle. Subsequent cycles would instrument
// this run in turn; here it returns the executed result so callers can
// compare work metrics against the initial run.
func (cy *Cycle) RunOptimized() (*engine.Result, error) {
	eng := NewExecutor(cy.Analysis, cy.db, cy.cfg)
	out, err := eng.RunPlansCtx(context.Background(), cy.Plans.Trees(), nil, nil)
	if err != nil {
		return nil, fmt.Errorf("core: optimized run: %w", err)
	}
	cy.Optimized = out
	return out, nil
}

// SaveStats persists the cycle's observed statistics so a later process can
// optimize without re-observing (ETL runs are usually scheduled in fresh
// processes).
func (cy *Cycle) SaveStats(w io.Writer) error {
	if cy.Observed == nil || cy.Observed.Observed == nil {
		return fmt.Errorf("core: no observed statistics to save")
	}
	_, err := cy.Observed.Observed.WriteTo(w)
	return err
}

// MissingStatsError reports a saved statistics store that cannot support a
// full optimization: for the named statistics (required SE cardinalities)
// no derivation path exists from what the store holds — the signature of a
// partial save from a degraded or cancelled run, or of a store saved under
// different CSS options. Config.AllowPartialStats turns the error into a
// fallback: affected blocks keep their initial plans.
type MissingStatsError struct {
	// Missing lists the underivable required statistics in canonical key
	// order.
	Missing []stats.Stat
	// Blocks lists the affected block indexes, ascending.
	Blocks []int
	// Labels renders Missing in the paper's notation (|T1⋈T2| …), aligned
	// with Missing, so the error message can name the statistics without
	// re-deriving the analysis.
	Labels []string
}

func (e *MissingStatsError) Error() string {
	const show = 5
	labels := e.Labels
	suffix := ""
	if len(labels) > show {
		labels = labels[:show]
		suffix = fmt.Sprintf(" and %d more", len(e.Labels)-show)
	}
	return fmt.Sprintf("core: saved statistics cannot derive %d required statistic(s) across block(s) %v: %s%s (partial save? set AllowPartialStats to optimize the derivable subset)",
		len(e.Missing), e.Blocks, strings.Join(labels, ", "), suffix)
}

// missingRequired probes every required statistic (the cardinality of
// every SE of every block) against the estimator and reports the
// underivable ones, or nil when the store covers everything.
func missingRequired(res *css.Result, est *estimate.Estimator) *MissingStatsError {
	var miss []stats.Stat
	for _, s := range res.Required {
		if _, err := est.Value(s); err != nil {
			miss = append(miss, s)
		}
	}
	if len(miss) == 0 {
		return nil
	}
	sort.Slice(miss, func(i, j int) bool { return stats.KeyLess(miss[i].Key(), miss[j].Key()) })
	e := &MissingStatsError{Missing: miss}
	blocks := map[int]bool{}
	for _, s := range miss {
		b := s.Target.Block
		e.Labels = append(e.Labels, s.Label(res.Analysis.Blocks[b]))
		if !blocks[b] {
			blocks[b] = true
			e.Blocks = append(e.Blocks, b)
		}
	}
	sort.Ints(e.Blocks)
	return e
}

// DriftFrom measures how far this cycle's observations moved relative to a
// previous cycle's; callers re-optimize when the drift exceeds their
// threshold (the paper's "repeat periodically" made data-driven).
func (cy *Cycle) DriftFrom(prev *Cycle) stats.Drift {
	if cy.Observed == nil || prev == nil || prev.Observed == nil {
		return stats.Drift{}
	}
	return stats.MeasureDrift(prev.Observed.Observed, cy.Observed.Observed)
}
