package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
)

// Fault tolerance. Two mechanisms compose here:
//
//   - Cancellation: every run threads a context.Context; the interpreter
//     polls it at operator boundaries and inside the join probe, so a run
//     stops promptly without leaking goroutines and without leaving
//     half-observed statistics in the store (an observer records only after
//     it has seen its whole batch).
//   - Block retry: a block whose attempt fails with a transient fault
//     re-runs from its (materialized) upstream inputs with capped
//     exponential backoff. Each attempt works against a private row-budget
//     child and a private sink, so a failed attempt refunds its budget and
//     leaves no partial side effects.
//
// A permanent failure returns a *BlockFailure beside the partial *Result of
// the blocks that did complete. Execution and the injector are
// deterministic, so the remedy is a new run, not a resumed one.
//
// Both are zero-cost when unused: nil context checks and a nil injector
// keep the hot paths on their fast paths.

// defaultRetryMax bounds per-block attempts (first try + retries).
const defaultRetryMax = 3

// defaultRetryBackoff is the base delay before the first retry; it doubles
// per attempt, capped at 100ms.
const defaultRetryBackoff = time.Millisecond

// FailedStat records one statistic whose observation failed permanently
// during a run (an injected permanent tap fault, or a store rejection).
// The run itself completes; the selector can re-plan around the gap.
type FailedStat struct {
	Stat stats.Stat
	Err  error
}

// BlockFailure is returned when a block fails permanently (after retries),
// beside the partial *Result of what did complete.
type BlockFailure struct {
	// Block is the lowest failing block index.
	Block int
	// Err is the block's final error.
	Err error
}

func (b *BlockFailure) Error() string { return fmt.Sprintf("block %d: %v", b.Block, b.Err) }
func (b *BlockFailure) Unwrap() error { return b.Err }

// runEnv carries the per-run fault-tolerance state shared by the block
// scheduler: cancellation, the shared row budget and the fault injector.
// The retry policy is constant (defaultRetryMax, defaultRetryBackoff).
type runEnv struct {
	ctx     context.Context
	budget  *rowBudget
	flt     *faults.Injector
	retries atomic.Int64
}

func newRunEnv(ctx context.Context, budget *rowBudget, flt *faults.Injector) *runEnv {
	if ctx == nil {
		ctx = context.Background()
	}
	return &runEnv{ctx: ctx, budget: budget, flt: flt}
}

// runBlock executes one block in-process — the scheduler's local executor,
// and all a worker does — with per-attempt isolation and transient retry.
// Each attempt gets a fresh sink over a child row budget; a failed attempt
// refunds the child's charge, so retries never double-charge MaxRows. The
// scheduler's block reads its upstream outputs from upstream, as rows; a
// worker's from held, in late form, and late asks for its tables in late
// form.
func (env *runEnv) runBlock(bp *physical.BlockPlan, upstream map[int]*data.Table, held map[int]*data.Late, col *collector, metrics, late bool) (*RemoteBlock, error) {
	idx := bp.Block.Index
	for attempt := 0; ; attempt++ {
		if err := env.ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			// A retry re-runs the whole block; whatever metrics the failed
			// attempt accumulated on this block's nodes would double-count
			// its rows, so the attempt starts from zero.
			for _, n := range bp.Nodes {
				n.Metrics = physical.Metrics{}
			}
		}
		var inject error
		if env.flt != nil {
			inject = env.flt.At(faults.Budget, fmt.Sprintf("budget:%d", idx), attempt)
		}
		sink := newBlockSink(env.budget.child(inject), late)
		sink.upstream, sink.held = upstream, held
		sink.ctx = env.ctx
		sink.flt = env.flt
		sink.attempt = attempt
		sink.block = idx
		tbl, err := runVecBlock(bp, col, sink, metrics)
		if err == nil {
			return &RemoteBlock{
				Out: tbl, Materialized: sink.materialized, Rows: sink.rows,
				LateOut: sink.lateOut, LateMaterialized: sink.lateMaterialized,
			}, nil
		}
		sink.budget.release()
		if !faults.IsTransient(err) || attempt+1 >= defaultRetryMax {
			return nil, err
		}
		env.retries.Add(1)
		if serr := Backoff(env.ctx, defaultRetryBackoff, attempt); serr != nil {
			return nil, serr
		}
	}
}

// maxRetryBackoff caps the exponential backoff between attempts.
const maxRetryBackoff = 100 * time.Millisecond

// Backoff waits out the capped exponential backoff before retry attempt+1
// — base doubled attempt times, capped at 100ms — returning early with the
// context's error if ctx is cancelled. The engine's block retries and the
// distributed coordinator's reassignments both wait here. The doubling
// saturates at the cap instead of shifting: `base << attempt` overflows to
// a negative duration for large attempt counts, which would fire the timer
// instantly and turn the backoff into a hot retry loop. An already-cancelled
// context returns before the timer is even armed.
func Backoff(ctx context.Context, base time.Duration, attempt int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d := base
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d <<= 1
	}
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ctxErr polls the run's cancellation; the interpreter calls it at every
// operator boundary.
func (s *blockSink) ctxErr() error {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// opFault asks the injector whether this node's evaluation fails on the
// current attempt. Sites are keyed by block and node ID, which the
// deterministic compiler assigns identically in every process, so local and
// dispatched runs fail (and recover) at the same points.
func (s *blockSink) opFault(n *physical.Node) error {
	if s.flt == nil {
		return nil
	}
	kind := faults.Operator
	if n.Kind == physical.OpScan {
		kind = faults.SourceRead
	}
	return s.flt.At(kind, fmt.Sprintf("op:%d:%d", s.block, n.ID), s.attempt)
}

// liveTaps filters a node's taps — compiled taps or auxiliary reject joins,
// each naming its statistic through stat — through the fault injector: a
// transient tap fault fails the attempt (the retry re-observes), a permanent
// one marks the statistic degraded in the collector and drops the tap so the
// block still completes. With no injector or no instrumentation the input
// slice is returned untouched.
func liveTaps[T any](s *blockSink, col *collector, taps []T, stat func(T) stats.Stat) ([]T, error) {
	if s.flt == nil || col == nil || len(taps) == 0 {
		return taps, nil
	}
	live := taps[:0:0]
	for _, t := range taps {
		st := stat(t)
		err := s.flt.At(faults.Tap, tapSite(st), s.attempt)
		if err == nil {
			live = append(live, t)
			continue
		}
		if faults.IsTransient(err) {
			return nil, err
		}
		col.markFailed(st, err)
	}
	return live, nil
}

// tapStat and auxStat name the statistic liveTaps filters by.
func tapStat(t physical.Tap) stats.Stat      { return t.Stat }
func auxStat(a *physical.AuxJoin) stats.Stat { return a.Stat }

// tapSite renders a statistic's engine-independent fault site: the
// comparable statistic key, identical however the plan is executed.
func tapSite(s stats.Stat) string { return fmt.Sprintf("tap:%v", s.Key()) }
