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
// <= 0) never trips. Each block attempt's sink counts what it charged
// (blockSink.rows), and a failed attempt refunds it, so a retried attempt
// starts from the budget state the failed one found.
//
// The charge is never taken back while an attempt runs, so once the limit
// is crossed every later add fails too: blocks sharing a budget each stop
// at their next charge after one of them trips it.
type rowBudget struct {
	limit int64
	used  atomic.Int64
}

func newRowBudget(limit int64) *rowBudget {
	if limit <= 0 {
		return nil
	}
	return &rowBudget{limit: limit}
}

// add charges n rows and fails once the limit is crossed; a negative n
// refunds.
func (b *rowBudget) add(n int64) error {
	if b == nil {
		return nil
	}
	if b.used.Add(n) > b.limit {
		return fmt.Errorf("%w: run exceeded MaxRows=%d intermediate rows (join blowup from data skew or a bad join order; raise MaxRows or set 0 to disable)", ErrRowGuard, b.limit)
	}
	return nil
}

// blockSink collects one block's side effects during execution. held holds
// the outputs of the blocks this block reads from (complete before it is
// scheduled), so chains never read the shared Result; out and materialized
// receive the block's own tables, in the same late form.
//
// The sink also carries the attempt's fault-tolerance state: the run
// context (polled at operator boundaries), the fault injector, the attempt
// number the injector's decisions key on and the injected budget fault its
// first charge returns. All nil/zero for plain runs — the interpreter's
// fast paths stay branch-cheap.
type blockSink struct {
	held         map[int]*data.Late
	out          *data.Late
	materialized map[string]*data.Late
	// rows is the block's work metric, all of it charged to budget.
	rows   int64
	budget *rowBudget
	// inject, when non-nil, is the injected budget exhaustion the first
	// charge returns instead.
	inject error

	ctx     context.Context
	flt     *faults.Injector
	attempt int
	block   int
}

// count adds n rows to the block's work metric and charges the run's row
// budget.
func (s *blockSink) count(n int64) error {
	if err := s.inject; err != nil {
		s.inject = nil
		return err
	}
	s.rows += n
	return s.budget.add(n)
}

// blockDeps returns the blocks each block reads the output of, indexed by
// block, each once.
func blockDeps(an *workflow.Analysis) [][]int {
	deps := make([][]int, len(an.Blocks))
	for _, b := range an.Blocks {
		for _, in := range b.Inputs {
			if in.FromBlock >= 0 && !slices.Contains(deps[b.Index], in.FromBlock) {
				deps[b.Index] = append(deps[b.Index], in.FromBlock)
			}
		}
	}
	return deps
}

// blockSched is the state of the one block scheduler, runBlocks. Fields
// below mu are guarded by it; held has the late form of every committed
// output a later block reads, which is what an in-process block reads (nil
// where the output stayed inside its chain, on a worker).
type blockSched struct {
	plan *physical.Plan
	deps [][]int
	// chains is the workflow's (Chains).
	chains [][]int
	// read is the blocks a later block reads: no other's output is kept.
	read map[int]bool
	// prev maps each block after its chain's head (Chains) to the block
	// before it there; inner is the blocks prev maps to, whose output a
	// worker never sends.
	prev  map[int]int
	inner map[int]bool
	env   *runEnv
	out   *Result
	col   *collector
	// metrics is Engine.CollectMetrics: a remote block must then ship one
	// physical.Metrics per node, and none otherwise.
	metrics bool
	// report is the run's placement record (nil without a dispatcher).
	report *DistReport

	mu   sync.Mutex
	cond *sync.Cond
	// remote is the placement in force; limit caps the blocks in flight
	// under it — the session's slots, or local once the run is in-process.
	remote                 bool
	limit, local, inflight int
	left                   int
	started, done          map[int]bool
	errs                   map[int]error
	held                   map[int]*data.Late
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
// A dispatch session runs the run's chains (Chains), each in one
// exchange. A dispatcher that reports ErrWorkersLost, at session open or
// from any chain, flips the blocks not yet committed to in-process
// execution inside the same loop — but a chain whose head committed
// remotely is still answered by the session: the placement degrades, the
// result stays whole, and no block runs twice.
func (e *Engine) runBlocks(plan *physical.Plan, env *runEnv, out *Result, col *collector, spec *DispatchSpec) error {
	s := e.newBlockSched(plan, env, out, col)
	var rd RunDispatch
	if e.Dispatch != nil {
		s.report = &DistReport{}
		out.Dist = s.report
		spec.Chains = s.chains
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
		s.report.Reassigned, s.report.Exchanges, s.report.LostWorkers = rd.Summary()
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

// newBlockSched starts the scheduler of one run, every block in-process.
func (e *Engine) newBlockSched(plan *physical.Plan, env *runEnv, out *Result, col *collector) *blockSched {
	deps := blockDeps(e.An)
	s := &blockSched{
		plan: plan, deps: deps, chains: Chains(e.An), read: readBlocks(deps), prev: map[int]int{}, inner: map[int]bool{},
		env: env, out: out, col: col, metrics: e.CollectMetrics,
		local: max(e.Workers, 1), left: len(plan.Blocks), started: map[int]bool{}, done: map[int]bool{}, errs: map[int]error{},
		held: map[int]*data.Late{},
	}
	for _, c := range s.chains {
		for i := 1; i < len(c); i++ {
			s.prev[c[i]], s.inner[c[i-1]] = c[i-1], true
		}
	}
	s.cond = sync.NewCond(&s.mu)
	s.limit = s.local
	return s
}

// work is one slot's loop: start the lowest-index ready block, execute it
// where the placement in force says, build its rows, retire it. Both the
// block and its rows run outside the lock.
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
		if p, ok := s.prev[idx]; ok {
			// The block before it left no output here only if it ran in
			// its chain's exchange, which ran this block too.
			remote = s.held[p] == nil
		} else if len(s.deps[idx]) > 0 {
			remote = false // it reads an output that left its chain
		}
		s.started[idx] = true
		s.inflight++
		upstream := make(map[int]*data.Table, len(s.deps[idx]))
		held := make(map[int]*data.Late, len(s.deps[idx]))
		for _, d := range s.deps[idx] {
			upstream[d], held[d] = s.out.BlockOut[d], s.held[d]
		}
		s.mu.Unlock()
		var rb *RemoteBlock
		var out *data.Table
		var materialized map[string]*data.Table
		var err error
		if remote {
			rb, err = rd.RunBlock(s.env.ctx, idx, upstream)
		} else {
			rb, err = s.env.runBlock(bp, held, s.col, s.metrics)
		}
		if err == nil {
			out, materialized = rowsOf(rb)
		}
		s.mu.Lock()
		s.inflight--
		if remote && errors.Is(err, ErrWorkersLost) {
			// Infrastructure loss, not a block error: hand the block back.
			s.started[idx] = false
			s.fallBack(err)
		} else {
			s.finish(bp, rb, out, materialized, remote, err)
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

// fallBack degrades the placement: every block not yet started runs
// in-process from the committed state. The first trigger is reported.
func (s *blockSched) fallBack(reason error) {
	s.remote, s.limit = false, s.local
	if !s.report.FellBack {
		s.report.FellBack, s.report.Reason = true, reason.Error()
	}
}

// rowsOf builds the rows of a block's tables: its output, unless it stayed
// inside its chain, and its materialized targets.
func rowsOf(rb *RemoteBlock) (out *data.Table, materialized map[string]*data.Table) {
	if rb.Out != nil {
		out = rb.Out.Table()
	}
	if len(rb.Materialized) > 0 {
		materialized = make(map[string]*data.Table, len(rb.Materialized))
	}
	for name, l := range rb.Materialized {
		materialized[name] = l.Table()
	}
	return out, materialized
}

// finish retires one executed block: a failed one is recorded for the
// *BlockFailure; a successful one is committed.
func (s *blockSched) finish(bp *physical.BlockPlan, rb *RemoteBlock, out *data.Table, materialized map[string]*data.Table, remote bool, err error) {
	idx := bp.Block.Index
	if err == nil {
		err = s.commit(bp, rb, out, materialized, remote)
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
// committed (a duplicate delivery) is left alone; one whose output stayed
// inside its chain is committed as a nil output. out and materialized are
// rb's tables as rows, built outside the lock.
func (s *blockSched) commit(bp *physical.BlockPlan, rb *RemoteBlock, out *data.Table, materialized map[string]*data.Table, remote bool) error {
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
		if rb.Out == nil && !s.inner[idx] {
			return fmt.Errorf("engine: block %d: the dispatcher returned no output for a block whose output leaves its chain", idx)
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
	s.out.BlockOut[idx] = out
	if s.read[idx] {
		s.held[idx] = rb.Out
	}
	for k, v := range materialized {
		s.out.Materialized[k] = v
	}
	s.out.Rows += rb.Rows
	return nil
}

// Chains lists a workflow's chains, by ascending head, each in order: a
// block that reads no block's output, then the blocks after it, each
// reading only the output of the one before it, which no sink and no other
// block reads. A chain is the unit of dispatch — one exchange runs it on
// one worker (RunChainCtx), and the outputs inside it never leave that
// worker — and the scheduler, the dispatcher (DispatchSpec.Chains) and the
// worker all read this one rule. A block in no chain reads an output that
// left its chain, and runs in-process.
func Chains(an *workflow.Analysis) [][]int {
	deps := blockDeps(an)
	readers := make(map[int]int) // the blocks and sinks reading each output
	for _, d := range deps {
		for _, up := range d {
			readers[up]++
		}
	}
	for _, sink := range an.Graph.Sinks() {
		if blk := sinkBlock(an, sink); blk != nil {
			readers[blk.Index]++
		}
	}
	next := make(map[int]int) // each block to the one after it in its chain
	for idx, d := range deps {
		if len(d) == 1 && readers[d[0]] == 1 {
			next[d[0]] = idx
		}
	}
	var chains [][]int
	for idx, d := range deps {
		if len(d) > 0 {
			continue
		}
		c := []int{idx}
		for n, ok := next[idx]; ok; n, ok = next[n] {
			c = append(c, n)
		}
		chains = append(chains, c)
	}
	return chains
}

// readBlocks is the blocks some later block reads.
func readBlocks(deps [][]int) map[int]bool {
	read := make(map[int]bool)
	for _, d := range deps {
		for _, idx := range d {
			read[idx] = true
		}
	}
	return read
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
