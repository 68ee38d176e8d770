package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Inter-block parallelism. An ETL workflow's optimizable blocks form a DAG:
// block B depends on block A exactly when one of B's inputs reads A's
// boundary output (BlockInput.FromBlock). Blocks with no path between them
// touch disjoint state, so they can execute concurrently — on separate
// goroutines, or on separate worker processes (dispatch.go). The scheduler
// below runs the compiled block plans with a bounded number in flight;
// every block accumulates its side effects (materialized tables, the
// row-work counter) privately — in a blockSink in-process, in a response
// frame on a worker — and the scheduler folds them into the shared Result
// under its own lock, so block execution itself never touches shared maps.
// With one slot the loop is the plain topological order, on the caller's
// goroutine.

// ErrRowGuard is what a run stopped by Engine.MaxRows fails with (wrapped).
var ErrRowGuard = errors.New("intermediate-cardinality guard")

// rowBudget is the shared intermediate-cardinality guard: every counted row
// of the run charges it, across blocks and workers. A nil budget (MaxRows
// <= 0) never trips.
//
// Block retry builds a child budget per attempt: the child tracks what the
// attempt charged (so a failed attempt can refund it) and forwards every
// charge to the run's root budget, where the limit lives. The injected
// budget fault, when armed, rides on the child so it fires exactly once per
// attempt, at the first charge — the same semantics at every worker count.
//
// The charge is never taken back while an attempt runs, so once the limit
// is crossed every later add fails too: blocks sharing a budget each stop
// at their next charge after one of them trips it.
type rowBudget struct {
	limit  int64
	used   atomic.Int64
	parent *rowBudget
	// inject, when non-nil, is returned by the first add (simulated budget
	// exhaustion from the fault injector).
	inject     error
	injectOnce atomic.Bool
}

func newRowBudget(limit int64) *rowBudget {
	if limit <= 0 {
		return nil
	}
	return &rowBudget{limit: limit}
}

// child derives a per-attempt budget. With neither a parent limit nor an
// injected fault there is nothing to track, so nil (the free fast path)
// comes back.
func (b *rowBudget) child(inject error) *rowBudget {
	if b == nil && inject == nil {
		return nil
	}
	return &rowBudget{parent: b, inject: inject}
}

// add charges n rows and fails once the limit is crossed (or the injected
// exhaustion fires).
func (b *rowBudget) add(n int64) error {
	if b == nil {
		return nil
	}
	if b.inject != nil && b.injectOnce.CompareAndSwap(false, true) {
		return b.inject
	}
	used := b.used.Add(n)
	if b.parent != nil {
		return b.parent.add(n)
	}
	if b.limit > 0 && used > b.limit {
		return fmt.Errorf("%w: run exceeded MaxRows=%d intermediate rows (join blowup from data skew or a bad join order; raise MaxRows or set 0 to disable)", ErrRowGuard, b.limit)
	}
	return nil
}

// release refunds this child's accumulated charge from every ancestor, so
// a retried attempt starts from the budget state the failed attempt found.
func (b *rowBudget) release() {
	if b == nil || b.parent == nil {
		return
	}
	n := b.used.Load()
	for p := b.parent; p != nil; p = p.parent {
		p.used.Add(-n)
	}
}

// blockSink collects one block's side effects during execution. upstream
// holds the boundary outputs of the blocks this block reads from (complete
// before the block is scheduled), so chains never read the shared Result;
// on a worker, held has them instead, in the late form they were made in.
//
// The sink also carries the attempt's fault-tolerance state: the run
// context (polled at operator boundaries), the fault injector and the
// attempt number the injector's decisions key on. All nil/zero for plain
// runs — the interpreter's fast paths stay branch-cheap.
type blockSink struct {
	upstream     map[int]*data.Table
	held         map[int]*data.Late
	materialized map[string]*data.Table
	rows         int64
	budget       *rowBudget

	// late says the block returns its tables in late form (lateOut,
	// lateMaterialized), as a worker ships or keeps them, instead of as
	// rows.
	late             bool
	lateOut          *data.Late
	lateMaterialized map[string]*data.Late

	ctx     context.Context
	flt     *faults.Injector
	attempt int
	block   int
}

func newBlockSink(budget *rowBudget, late bool) *blockSink {
	s := &blockSink{budget: budget, late: late}
	if late {
		s.lateMaterialized = make(map[string]*data.Late)
	} else {
		s.materialized = make(map[string]*data.Table)
	}
	return s
}

// count adds n rows to the block's work metric and charges the run's row
// budget.
func (s *blockSink) count(n int64) error {
	s.rows += n
	return s.budget.add(n)
}

// blockDeps returns the upstream block indices each block reads from.
func blockDeps(plan *physical.Plan) map[int][]int {
	deps := make(map[int][]int, len(plan.Blocks))
	for _, bp := range plan.Blocks {
		var d []int
		for _, in := range bp.Block.Inputs {
			if in.FromBlock >= 0 {
				d = append(d, in.FromBlock)
			}
		}
		deps[bp.Block.Index] = d
	}
	return deps
}

// blockSched is the state of the one block scheduler, runBlocks. Fields
// below mu are guarded by it.
type blockSched struct {
	plan *physical.Plan
	deps map[int][]int
	env  *runEnv
	out  *Result
	col  *collector
	// metrics is Engine.CollectMetrics: a remote block must then ship one
	// physical.Metrics per node, and none otherwise.
	metrics bool
	// report is the run's placement record (nil without a dispatcher).
	report *DistReport
	// hold lists the blocks the dispatch session is asked to hold.
	hold []int

	mu   sync.Mutex
	cond *sync.Cond
	// remote is the placement in force; limit caps the blocks in flight
	// under it — the session's slots, or local once the run is in-process.
	remote                 bool
	limit, local, inflight int
	left                   int
	started, done          map[int]bool
	errs                   map[int]error
}

// runBlocks executes every compiled block: one readiness → execute →
// commit loop over the block dependency DAG, parameterised only by where a
// block runs — in-process through env.runBlock, or on a worker through a
// dispatch session. Both executors hand back a *RemoteBlock and one commit
// folds it into the run. The blocks in flight are bounded: Workers
// in-process, the session's slots on remote workers. When several blocks
// are ready the lowest block index starts first, and on failure the error
// of the lowest failing block index is returned as a *BlockFailure, so error
// reporting is deterministic regardless of goroutine timing; out keeps what
// did complete.
//
// A dispatch session is asked to hold the outputs heldBlocks names. A
// dispatcher that reports ErrWorkersLost, at session open or from any
// block, flips the blocks not yet committed to in-process execution inside
// the same loop: the placement degrades, the result stays whole.
func (e *Engine) runBlocks(plan *physical.Plan, env *runEnv, out *Result, col *collector, spec *DispatchSpec) error {
	s := &blockSched{
		plan: plan, deps: blockDeps(plan), env: env, out: out, col: col, metrics: e.CollectMetrics,
		local: max(e.Workers, 1), left: len(plan.Blocks), started: map[int]bool{}, done: map[int]bool{}, errs: map[int]error{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.limit = s.local
	var rd RunDispatch
	if e.Dispatch != nil {
		s.report = &DistReport{}
		out.Dist = s.report
		s.hold = heldBlocks(e.An, s.deps)
		spec.Hold = s.hold
		if session, err := e.Dispatch.DispatchRun(env.ctx, spec); err != nil {
			s.fallBack(err) // no reachable worker: the whole run is in-process
		} else {
			rd, s.remote, s.limit = session, true, max(session.Slots(), 1)
		}
	}

	// One loop per slot either placement may use; the caller's goroutine is
	// the first, so a single slot starts none.
	var wg sync.WaitGroup
	for i := min(max(s.local, s.limit), s.left); i > 1; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(rd)
		}()
	}
	s.work(rd)
	wg.Wait()

	if s.report != nil {
		sort.Ints(s.report.Remote)
		sort.Ints(s.report.Local)
	}
	if rd != nil {
		var recomputed int64
		s.report.Reassigned, s.report.Resident, recomputed, s.report.LostWorkers = rd.Summary()
		s.report.Recomputed += recomputed
	}
	if len(s.errs) > 0 {
		idxs := make([]int, 0, len(s.errs))
		for i := range s.errs {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		return &BlockFailure{Block: idxs[0], Err: s.errs[idxs[0]]}
	}
	return nil
}

// work is one slot's loop: start the lowest-index ready block, execute it
// where the placement in force says, retire it.
func (s *blockSched) work(rd RunDispatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.errs) == 0 && s.left > 0 {
		var bp *physical.BlockPlan
		if s.inflight < s.limit {
			bp = s.nextReady()
		}
		if bp == nil {
			// Everything runnable is in flight (the topological order
			// guarantees progress while blocks remain and none failed).
			s.cond.Wait()
			continue
		}
		idx, remote := bp.Block.Index, s.remote
		s.started[idx] = true
		s.inflight++
		upstream := make(map[int]*data.Table, len(s.deps[idx]))
		for _, d := range s.deps[idx] {
			upstream[d] = s.out.BlockOut[d] // nil when held
		}
		s.mu.Unlock()
		var rb *RemoteBlock
		var err error
		if remote {
			rb, err = rd.RunBlock(s.env.ctx, idx, upstream)
		} else if err = s.recompute(upstream); err == nil {
			rb, err = s.env.runBlock(bp, upstream, nil, s.col, s.metrics, false)
		}
		s.mu.Lock()
		s.inflight--
		if remote && errors.Is(err, ErrWorkersLost) {
			// Infrastructure loss, not a block error: hand the block back.
			s.started[idx] = false
			s.fallBack(err)
		} else {
			s.finish(bp, rb, remote, err)
		}
		s.cond.Broadcast()
	}
}

// nextReady picks the lowest-index block whose dependencies completed.
func (s *blockSched) nextReady() *physical.BlockPlan {
	for _, bp := range s.plan.Blocks {
		if s.started[bp.Block.Index] {
			continue
		}
		ready := true
		for _, d := range s.deps[bp.Block.Index] {
			if !s.done[d] {
				ready = false
				break
			}
		}
		if ready {
			return bp
		}
	}
	return nil
}

// recompute fills in the held outputs of an upstream map for an in-process
// block to read, recomputing each — and what it reads, as far up as needed —
// output only: no taps, no metrics, no row-budget charge, no injected
// faults, no retries. What it makes replaces the nil output in the result,
// where later readers find it.
func (s *blockSched) recompute(upstream map[int]*data.Table) error {
	for d, t := range upstream {
		if t != nil {
			continue
		}
		up := make(map[int]*data.Table, len(s.deps[d]))
		s.mu.Lock()
		for _, u := range s.deps[d] {
			up[u] = s.out.BlockOut[u]
		}
		s.mu.Unlock()
		if err := s.recompute(up); err != nil {
			return err
		}
		env := newRunEnv(s.env.ctx, nil, nil)
		rb, err := env.runBlock(s.plan.Blocks[d], up, nil, nil, false, false)
		if err != nil {
			return fmt.Errorf("recomputing held block %d: %w", d, err)
		}
		s.mu.Lock()
		if s.out.BlockOut[d] == nil {
			s.out.BlockOut[d] = rb.Out
			s.report.Recomputed++
		}
		upstream[d] = s.out.BlockOut[d]
		s.mu.Unlock()
	}
	return nil
}

// fallBack degrades the placement: every block not yet started runs
// in-process from the committed state. The first trigger is reported.
func (s *blockSched) fallBack(reason error) {
	s.remote, s.limit = false, s.local
	if !s.report.FellBack {
		s.report.FellBack, s.report.Reason = true, reason.Error()
	}
}

// finish retires one executed block: a failed one is recorded for the
// *BlockFailure; a successful one is committed.
func (s *blockSched) finish(bp *physical.BlockPlan, rb *RemoteBlock, remote bool, err error) {
	idx := bp.Block.Index
	if err == nil {
		err = s.commit(bp, rb, remote)
	}
	s.left--
	if err != nil {
		s.errs[idx] = err
		return
	}
	s.done[idx] = true
}

// commit folds one block's outcome into the run — the single commit point
// of both placements. An in-process block charged the run's row budget,
// observed into the run's collector and wrote its nodes' metrics while it
// ran; a remote block brings all three along, and crossing MaxRows here
// fails it as crossing it mid-block fails a local one. A block already
// committed (a duplicate delivery) is left alone; a held one is committed
// as a nil output.
func (s *blockSched) commit(bp *physical.BlockPlan, rb *RemoteBlock, remote bool) error {
	idx := bp.Block.Index
	if _, ok := s.out.BlockOut[idx]; ok {
		return nil
	}
	if remote {
		want := 0
		if s.metrics {
			want = len(bp.Nodes)
		}
		if len(rb.Metrics) != want {
			return fmt.Errorf("engine: block %d: worker shipped a metrics shard of %d nodes, the compiled block has %d", idx, len(rb.Metrics), want)
		}
		if rb.Out == nil && (!rb.Held || !slices.Contains(s.hold, idx)) {
			return fmt.Errorf("engine: block %d: the dispatcher returned neither its output nor one it was asked to hold", idx)
		}
		if err := s.env.budget.add(rb.Rows); err != nil {
			return err
		}
		for i := range rb.Metrics {
			bp.Nodes[i].Metrics = rb.Metrics[i]
		}
		s.env.retries.Add(rb.Retries)
		if s.col != nil {
			if rb.Observed != nil {
				s.col.store.Merge(rb.Observed)
			}
			for _, fs := range rb.Degraded {
				s.col.markFailed(fs.Stat, fs.Err)
			}
		}
		s.report.Remote = append(s.report.Remote, idx)
	} else if s.report != nil {
		s.report.Local = append(s.report.Local, idx)
	}
	s.out.BlockOut[idx] = rb.Out
	if rb.Out == nil {
		s.report.Held++
	}
	for k, v := range rb.Materialized {
		s.out.Materialized[k] = v
	}
	s.out.Rows += rb.Rows
	return nil
}

// heldBlocks lists, ascending, the blocks whose output a dispatch session
// is asked to hold: a later block reads it and no sink does.
func heldBlocks(an *workflow.Analysis, deps map[int][]int) []int {
	read := make(map[int]bool)
	for _, d := range deps {
		for _, idx := range d {
			read[idx] = true
		}
	}
	for _, sink := range an.Graph.Sinks() {
		if blk := sinkBlock(an, sink); blk != nil {
			delete(read, blk.Index)
		}
	}
	held := make([]int, 0, len(read))
	for idx := range read {
		held = append(held, idx)
	}
	sort.Ints(held)
	return held
}

// sinkBlock returns the block whose output a sink reads, nil when there is
// none.
func sinkBlock(an *workflow.Analysis, sink *workflow.Node) *workflow.Block {
	if blk := an.BlockOf(sink.Inputs[0]); blk != nil {
		return blk
	}
	// The sink's input is a block terminal.
	for _, b := range an.Blocks {
		if b.Terminal == sink.Inputs[0] {
			return b
		}
	}
	return nil
}

// routeSinks fills out.Sinks from the block outputs.
func routeSinks(an *workflow.Analysis, out *Result) error {
	for _, sink := range an.Graph.Sinks() {
		blk := sinkBlock(an, sink)
		if blk == nil {
			return fmt.Errorf("sink %q: cannot locate producing block", sink.ID)
		}
		out.Sinks[sink.Rel] = out.BlockOut[blk.Index]
	}
	return nil
}
