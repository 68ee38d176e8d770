package payg

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Run is one execution of a multi-run observation: the join tree per block
// (nil map or missing entry = the initial plan) and the statistics to
// collect wherever those plans produce their targets.
type Run struct {
	Observe []stats.Stat
	Trees   map[int]*workflow.JoinTree
}

// ObserveRuns executes the runs on one engine, each a full execution that
// taps its statistics wherever its trees produce them, at most eng.Workers
// at a time. The stores merge in run order and the work rows add up, so the
// outcome is the sequential one whatever the completion order; each run's
// placement comes back in run order (nil entries without a dispatcher).
// After a failure no further run starts and the earliest failed run's error
// is returned.
func ObserveRuns(ctx context.Context, eng *engine.Engine, res *css.Result, runs []*Run) (*stats.Store, int64, []*engine.DistReport, error) {
	stores := make([]*stats.Store, len(runs))
	dist := make([]*engine.DistReport, len(runs))
	rows := make([]int64, len(runs))
	errs := make([]error, len(runs))
	var failed atomic.Bool
	sem := make(chan struct{}, max(eng.Workers, 1))
	var wg sync.WaitGroup
	for i, run := range runs {
		sem <- struct{}{}
		if failed.Load() {
			<-sem
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			result, err := eng.RunPlansCtx(ctx, run.Trees, res, run.Observe)
			if err != nil {
				errs[i] = err
				failed.Store(true)
				return
			}
			stores[i], rows[i], dist[i] = result.Observed, result.Rows, result.Dist
		}()
	}
	wg.Wait()
	merged := stats.NewStore()
	var total int64
	for i, err := range errs {
		if err != nil {
			return nil, 0, nil, fmt.Errorf("run %d: %w", i+1, err)
		}
		merged.Merge(stores[i])
		total += rows[i]
	}
	return merged, total, dist, nil
}

// ExecuteResult is the outcome of actually running the baseline's plan
// sequence.
type ExecuteResult struct {
	// Runs is the number of executions performed.
	Runs int
	// Learned accumulates the trivial-CSS observations (one cardinality
	// counter per SE exposed by some plan).
	Learned *stats.Store
	// RowsTotal sums the engine work across all executions — the price the
	// baseline pays where the framework pays for one run.
	RowsTotal int64
}

// ExecuteCtx runs the pay-as-you-go baseline for real: each plan of the
// report's per-block sequences executes once (blocks cycle their own
// sequences independently), observing nothing but cardinality counters at
// the points each plan produces. Afterwards Learned holds |e| for every SE
// any plan exposed — the baseline's replacement for the framework's single
// instrumented run.
func ExecuteCtx(ctx context.Context, eng *engine.Engine, res *css.Result, rep *Report) (*ExecuteResult, error) {
	// Observation wish-list: the cardinality of every SE of every block.
	var observe []stats.Stat
	for bi, sp := range res.Spaces {
		for _, se := range sp.SEs {
			observe = append(observe, stats.NewCard(stats.BlockSE(bi, se)))
		}
	}
	runs := make([]*Run, max(rep.Found, 1))
	for r := range runs {
		plans := make(map[int]*workflow.JoinTree)
		for _, br := range rep.PerBlock {
			if len(br.Plans) == 0 {
				continue
			}
			// Past its own sequence a block's SEs are already covered.
			plans[br.Block] = br.Plans[min(r, len(br.Plans)-1)]
		}
		runs[r] = &Run{Observe: observe, Trees: plans}
	}
	learned, rows, _, err := ObserveRuns(ctx, eng, res, runs)
	if err != nil {
		return nil, fmt.Errorf("payg: %w", err)
	}
	return &ExecuteResult{Runs: len(runs), Learned: learned, RowsTotal: rows}, nil
}
