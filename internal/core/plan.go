package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/essential-stats/etlopt/internal/costmodel"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Plan is the design-time half of Figure 2 for one workflow document under
// one set of CSS options: the analysis into blocks, the candidate
// statistics sets, the universe priced by memory (the Figure 11 objective)
// and the selection each solver makes over it. Every stage is computed on
// first use, once, and timed; later calls return the same value. A Plan is
// safe for concurrent use, so one Plan serves every request that plans the
// same document.
//
// Each stage is a pure function of the document and the options, so its
// error is as deterministic as its value: a stage that failed once is not
// retried, and every later call returns the same error.
type Plan struct {
	g   *workflow.Graph
	cat *workflow.Catalog
	opt css.Options

	analysis stage[*workflow.Analysis]
	css      stage[*css.Result]
	universe stage[*selector.Universe]
	// selection is indexed by selector.Method.
	selection [2]stage[*selector.Selection]
}

// stage is one lazily computed, timed step of a Plan.
type stage[T any] struct {
	once sync.Once
	val  T
	err  error
	took atomic.Int64 // nanoseconds; 0 until the stage has run
}

func (s *stage[T]) get(build func() (T, error)) (T, error) {
	s.once.Do(func() {
		start := time.Now()
		s.val, s.err = build()
		s.took.Store(int64(time.Since(start)))
	})
	return s.val, s.err
}

// NewPlan returns the planning pipeline of the workflow under the CSS
// options; nothing is computed until a stage is asked for.
func NewPlan(g *workflow.Graph, cat *workflow.Catalog, opt css.Options) *Plan {
	return &Plan{g: g, cat: cat, opt: opt}
}

// Analysis is step 1: the workflow analyzed into optimizable blocks.
func (p *Plan) Analysis() (*workflow.Analysis, error) {
	return p.analysis.get(func() (*workflow.Analysis, error) {
		an, err := workflow.Analyze(p.g, p.cat)
		if err != nil {
			return nil, fmt.Errorf("core: analyze: %w", err)
		}
		return an, nil
	})
}

// CSS is steps 2–3: every block's sub-expressions and their candidate
// statistics sets.
func (p *Plan) CSS() (*css.Result, error) {
	an, err := p.Analysis()
	if err != nil {
		return nil, err
	}
	return p.css.get(func() (*css.Result, error) {
		res, err := css.Generate(an, p.opt)
		if err != nil {
			return nil, fmt.Errorf("core: generate CSS: %w", err)
		}
		return res, nil
	})
}

// Universe prices the candidate statistics by memory and lays them out
// for the solvers; Section 6.1's budgeted schedules plan over it without
// solving it. It is read-only, so concurrent solves share it.
func (p *Plan) Universe() (*selector.Universe, error) {
	res, err := p.CSS()
	if err != nil {
		return nil, err
	}
	return p.universe.get(func() (*selector.Universe, error) {
		u, err := selector.NewUniverseOpts(res, costmodel.NewMemoryCoster(res, res.Analysis.Cat), selector.UniverseOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: select statistics: %w", err)
		}
		return u, nil
	})
}

// Selection is step 4 (Section 5): the statistics to observe, as the
// method's solver picks them over the Universe. Whoever asks which
// statistics a run will observe asks here.
func (p *Plan) Selection(m selector.Method) (*selector.Selection, error) {
	u, err := p.Universe()
	if err != nil {
		return nil, err
	}
	return p.selection[methodSlot(m)].get(func() (*selector.Selection, error) {
		sel, err := selector.SelectUniverse(u, selector.Options{Method: m})
		if err != nil {
			return nil, fmt.Errorf("core: select statistics: %w", err)
		}
		return sel, nil
	})
}

// methodSlot maps a method onto its selection stage; like SelectUniverse,
// it reads every method but greedy as exact.
func methodSlot(m selector.Method) int {
	if m == selector.MethodGreedy {
		return 1
	}
	return 0
}

// Timings reports how long the stages took when they ran: Select is the
// universe plus the method's solve. A stage not yet run reads 0.
func (p *Plan) Timings(m selector.Method) Timings {
	return Timings{
		Analyze:     time.Duration(p.analysis.took.Load()),
		GenerateCSS: time.Duration(p.css.took.Load()),
		Select:      time.Duration(p.universe.took.Load() + p.selection[methodSlot(m)].took.Load()),
	}
}

// Optimize cost-optimizes every block from a statistics store — saved by
// an earlier run, or held by the serving daemon's catalog — without
// executing the workflow. cfg supplies the cost model and
// AllowPartialStats; the Plan supplies the CSS options.
//
// A store that cannot derive every required SE cardinality fails with a
// typed *MissingStatsError naming the underivable statistics — silent
// estimation from incomplete statistics is exactly the failure mode the
// paper's framework exists to rule out. Config.AllowPartialStats instead
// optimizes the derivable subset, leaving affected blocks on their initial
// plans (optimizer.Result.Fallbacks).
func (p *Plan) Optimize(store *stats.Store, cfg Config) (*estimate.Estimator, *optimizer.Result, error) {
	res, err := p.CSS()
	if err != nil {
		return nil, nil, err
	}
	est := estimate.New(res, store)
	if miss := missingRequired(res, est); miss != nil && !cfg.AllowPartialStats {
		return nil, nil, miss
	}
	plans, err := optimizer.OptimizeOpts(res, est, cfg.CostModel,
		optimizer.Options{FallbackInitial: cfg.AllowPartialStats})
	if err != nil {
		return nil, nil, fmt.Errorf("core: optimize: %w", err)
	}
	return est, plans, nil
}
