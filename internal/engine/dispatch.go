package engine

import (
	"context"
	"errors"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Distributed block dispatch. A run with Engine.Dispatch set places its
// blocks through a BlockDispatcher — in practice internal/serve's
// Coordinator, which leases each block to a worker process over HTTP —
// instead of executing them on local goroutines. Placement is all that
// changes: the one scheduler (runBlocks in parallel.go) commits a remote
// block through the same commit point as a local one. A worker returns
// what an in-process block leaves behind — boundary output, materialized
// tables, work-metric rows, a private statistics shard and, under
// CollectMetrics, its per-node metrics — so observed statistics and metrics
// are byte-identical however the blocks were placed.
//
// One exception is asked for: a boundary output no sink reads and a later
// block does is held — left on the worker that made it, the run keeping a
// nil output in its place. The block that reads it runs remotely, in the
// same session, which knows where the output is; one that runs in-process
// after a fallback first recomputes it here, output only.
//
// Robustness is structural, not best-effort: a dispatcher signals
// unrecoverable infrastructure loss with ErrWorkersLost, and the scheduler
// then runs every block not yet committed in-process, from the committed
// state. The caller always gets either a complete Result or a typed
// *BlockFailure; never a silently partial one.

// ErrWorkersLost is the dispatcher's terminal signal: every worker is dead
// or unreachable past the dispatcher's retry budget. The scheduler reacts
// by falling back to in-process execution from the committed blocks.
var ErrWorkersLost = errors.New("engine: all workers lost")

// DispatchSpec tells the dispatcher what run its workers must reproduce;
// they rebuild workflow, data and compiled plan deterministically on their
// side. The engine fills it (runPlans), never a user: besides what varies
// per run it carries the Engine's own knobs a worker must mirror.
type DispatchSpec struct {
	// Plans maps block index to the join tree to execute (nil map or
	// missing entry = the block's initial tree).
	Plans map[int]*workflow.JoinTree
	// Observe lists the statistics to collect; empty for uninstrumented
	// runs.
	Observe []stats.Stat
	// Instrument reports whether the run is instrumented at all (a run can
	// be instrumented with an empty tap set on some blocks).
	Instrument bool
	// Faults is the injector's spec (faults.Parse form); Metrics is the
	// Engine's CollectMetrics. Workers is not mirrored: a worker runs one
	// block per request.
	Faults  string
	Metrics bool
	// Hold lists, ascending, the blocks whose boundary output the session
	// should leave on the worker that made it and return as Held: a later
	// block reads each, no sink does.
	Hold []int
	// DB is the run's data. A worker's tables name the rows of its source
	// relations they read (data.Late), and the dispatcher gathers them from
	// here: it must be the data the workers generate.
	DB DB
}

// RemoteBlock is one block's execution outcome, whichever side of the
// dispatch seam produced it. In-process execution fills Out, Materialized
// and Rows — its statistics, metrics and retries went straight into the
// run's own collector, plan and counters; a worker ships all of it.
type RemoteBlock struct {
	// Out is the block's boundary output; nil when it is held.
	Out *data.Table
	// Held reports that the output stayed on the worker, for a block
	// DispatchSpec.Hold lists; Out is then nil.
	Held bool
	// Materialized holds the block's materialized targets (reject links,
	// explicit materializations).
	Materialized map[string]*data.Table
	// Rows is the block's work-metric contribution.
	Rows int64
	// Observed is the block's statistics shard (nil when uninstrumented).
	Observed *stats.Store
	// Degraded lists statistics whose observation failed permanently on
	// the worker.
	Degraded []FailedStat
	// Retries counts worker-side block attempts repeated after transient
	// faults.
	Retries int64
	// Metrics is the block's per-node metrics shard, indexed by node ID
	// (the compiler is deterministic, so ids agree across processes); nil
	// unless the worker engine ran with CollectMetrics.
	Metrics []physical.Metrics
	// LateOut and LateMaterialized are what RunBlockCtx returns in place of
	// Out and Materialized: the tables a worker ships, in late form, naming
	// the source rows they read. A worker that holds the output keeps
	// LateOut and ships none.
	LateOut          *data.Late
	LateMaterialized map[string]*data.Late
	// Sources is the row count of every source relation the block read, by
	// name — scanned, or read through a held upstream output: a dispatcher
	// checks them against the run's data (DispatchSpec.DB), which the
	// worker's must be.
	Sources map[string]int
}

// RunDispatch is one run's dispatch session.
type RunDispatch interface {
	// RunBlock executes one block remotely. The upstream map has an entry
	// for every block this block reads from: its boundary output, or nil
	// when this session holds it. A worker reads only outputs held where it
	// runs, so a block that reads one the session does not hold is
	// undeliverable. An error wrapping ErrWorkersLost means dispatch is
	// unavailable to the block and the rest of the run; any other error is
	// the block's own (deterministic) execution error.
	RunBlock(ctx context.Context, block int, upstream map[int]*data.Table) (*RemoteBlock, error)
	// Slots bounds how many blocks the scheduler keeps in flight.
	Slots() int
	// Summary reports the session so far: dispatch attempts retried, on the
	// same or another worker, after a lease expired or a request failed;
	// upstream outputs a worker took from its own store; held outputs a
	// worker made again because one it was asked to read was not there; and
	// the workers marked dead.
	Summary() (reassigned, resident, recomputed int64, lostWorkers []string)
}

// BlockDispatcher opens dispatch sessions; internal/serve's Coordinator
// implements it.
type BlockDispatcher interface {
	DispatchRun(ctx context.Context, spec *DispatchSpec) (RunDispatch, error)
}

// DistReport records how a distributed run was actually placed; it rides
// on Result.Dist.
type DistReport struct {
	// Remote lists blocks executed on workers (ascending).
	Remote []int
	// Local lists blocks executed in-process after a fallback (ascending).
	Local []int
	// Reassigned counts dispatch attempts retried after lease expiry or
	// request failure.
	Reassigned int64
	// Resident counts upstream outputs a worker took from its store, where
	// the request named them.
	Resident int64
	// Held counts the committed blocks whose output stayed on a worker.
	Held int64
	// Recomputed counts held outputs made again, output only, because the
	// one made first could not be read where it was needed: by a worker
	// that lacked it, or in-process after a fallback.
	Recomputed int64
	// LostWorkers lists worker addresses marked dead during the run.
	LostWorkers []string
	// FellBack reports that the run degraded to in-process execution for
	// at least one block (all workers lost); the run still completed.
	FellBack bool
	// Reason is the fallback trigger, empty unless FellBack.
	Reason string
}

// RunBlockCtx executes exactly one block of the workflow — the worker side
// of distributed dispatch. The caller supplies the boundary output of every
// upstream block in held, in the late form RunBlockCtx made it in, which
// the caller kept. The engine compiles the same deterministic physical plan
// a full run would, executes just the requested block (with the usual
// per-attempt isolation, transient retry and fault injection), and returns
// the block's outcome plus a private statistics shard holding only what
// this block's taps observed — and, under CollectMetrics, the block's
// per-node metrics. Its tables come back
// late (LateOut and LateMaterialized), Out and Materialized empty: a column
// read from a held upstream output names the source rows that output read.
func (e *Engine) RunBlockCtx(ctx context.Context, block int, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat, held map[int]*data.Late) (*RemoteBlock, error) {
	plan, err := physical.Compile(e.An, e.DB, physical.Options{
		Plans: plans, Res: res, Observe: observe, Reg: e.Reg,
	})
	if err != nil {
		return nil, err
	}
	var bp *physical.BlockPlan
	for _, b := range plan.Blocks {
		if b.Block.Index == block {
			bp = b
			break
		}
	}
	if bp == nil {
		return nil, errors.New("engine: no such block in compiled plan")
	}
	for _, d := range blockDeps(plan)[block] {
		if held[d] == nil {
			return nil, errors.New("engine: missing upstream boundary output for block dispatch")
		}
	}
	var col *collector
	if res != nil {
		col = newCollector()
	}
	env := newRunEnv(ctx, newRowBudget(e.MaxRows), e.Faults)
	rb, err := env.runBlock(bp, nil, held, col, e.CollectMetrics, true)
	if err != nil {
		return nil, err
	}
	rb.Degraded = col.failedStats()
	rb.Retries = env.retries.Load()
	source := func(rel string, rows int) {
		if rb.Sources == nil {
			rb.Sources = make(map[string]int)
		}
		rb.Sources[rel] = rows
	}
	for _, n := range bp.Nodes {
		switch {
		case n.Kind != physical.OpScan:
		case n.FromBlock < 0:
			source(n.SourceRel, len(n.Src.Rows))
		case held[n.FromBlock] != nil:
			for _, in := range held[n.FromBlock].Ins {
				source(in.Src.Rel, len(in.Src.Rows))
			}
		}
	}
	if col != nil {
		rb.Observed = col.store
	}
	if e.CollectMetrics {
		rb.Metrics = make([]physical.Metrics, len(bp.Nodes))
		for i, n := range bp.Nodes {
			rb.Metrics[i] = n.Metrics
		}
	}
	return rb, nil
}
