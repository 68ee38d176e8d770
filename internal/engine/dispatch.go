package engine

import (
	"context"
	"errors"
	"fmt"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Distributed block dispatch. A run with Engine.Dispatch set places its
// blocks through a BlockDispatcher — in practice internal/serve's
// Coordinator, which leases them to worker processes over HTTP — instead of
// executing them on local goroutines. Placement is all that changes: the
// one scheduler (runBlocks in parallel.go) commits a remote block through
// the same commit point as a local one. A worker returns what an in-process
// block leaves behind — boundary output, materialized tables, work-metric
// rows, a private statistics shard and, under CollectMetrics, its per-node
// metrics — so observed statistics and metrics are byte-identical however
// the blocks were placed.
//
// The unit of dispatch is a chain (Chains, parallel.go): a block that reads
// no block's output and the blocks after it, each of which reads only the
// output of the one before it, which no sink and no other block reads. One
// exchange runs a whole chain on one worker through RunChainCtx, and the
// outputs inside it never leave that worker: the run keeps a nil output in
// their place. The scheduler still asks for every block, and commits each
// on its own; the session answers a chain's later blocks from the exchange
// its head made, after a fallback too. An output that leaves its chain is
// shipped, and a block that reads one runs in-process: a request carries no
// table.
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
	// Engine's CollectMetrics. Workers is not mirrored: a worker runs the
	// blocks of a chain one after another.
	Faults  string
	Metrics bool
	// Chains is the workflow's chains (Chains): a worker runs exactly one
	// of them per request.
	Chains [][]int
	// DB is the run's data. A worker's tables name the rows of its source
	// relations they read (data.Late), and the dispatcher resolves them
	// here: it must be the data the workers generate.
	DB DB
}

// RemoteBlock is one block's execution outcome, whichever side of the
// dispatch seam produced it, its tables in late form (data.Late), whose
// rows the scheduler builds. In-process execution fills Out, Materialized
// and Rows — its statistics, metrics and retries went straight into the
// run's own collector, plan and counters; a worker ships all of it.
type RemoteBlock struct {
	// Out is the block's boundary output; nil for a block of a chain but
	// its last, whose output the next block read on the worker.
	Out *data.Late
	// Materialized holds the block's materialized targets (reject links,
	// explicit materializations).
	Materialized map[string]*data.Late
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
	// Sources is the row count of every source relation the block read, by
	// name — scanned, or read through its chain's upstream output: a
	// dispatcher checks them against the run's data (DispatchSpec.DB), which
	// the worker's must be.
	Sources map[string]int
}

// RunDispatch is one run's dispatch session.
type RunDispatch interface {
	// RunBlock executes one block remotely: a chain's head in one exchange
	// with the blocks after it, whose results it keeps; a later block of a
	// chain from what its head's exchange kept, whatever the placement in
	// force since. The upstream map has an entry, nil, for the block before
	// it in its chain; a block that reads any other output is never asked
	// for. An error wrapping ErrWorkersLost means dispatch is unavailable to
	// the chain and the rest of the run; any other error is the block's own
	// (deterministic) execution error.
	RunBlock(ctx context.Context, block int, upstream map[int]*data.Table) (*RemoteBlock, error)
	// Slots bounds how many blocks the scheduler keeps in flight.
	Slots() int
	// Summary reports the session so far: dispatch attempts retried, on the
	// same or another worker, after a lease expired or a request failed;
	// the exchanges that ran a chain; and the workers marked dead.
	Summary() (reassigned, exchanges int64, lostWorkers []string)
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
	// Local lists blocks executed in-process (ascending): after a fallback,
	// or because they read an output that left its chain.
	Local []int
	// Reassigned counts dispatch attempts retried after lease expiry or
	// request failure.
	Reassigned int64
	// Exchanges counts the requests that ran a chain on a worker.
	Exchanges int64
	// LostWorkers lists worker addresses marked dead during the run.
	LostWorkers []string
	// FellBack reports that the run degraded to in-process execution for
	// at least one block (all workers lost); the run still completed.
	FellBack bool
	// Reason is the fallback trigger, empty unless FellBack.
	Reason string
}

// RunChainCtx executes one chain of the workflow (Chains) — the worker
// side of distributed dispatch. It compiles the same deterministic physical
// plan a full run would, once, and runs the chain's blocks one after
// another, each with the usual per-attempt isolation, transient retry and
// fault injection, and each reading the output of the block before it in
// the late form that block made it in. It returns every block's outcome in
// chain order, the output of the last alone: besides its tables, each
// carries a private statistics shard holding only what the block's taps
// observed, its retries, the source relations it read and, under
// CollectMetrics, its per-node metrics. Each block is held to MaxRows on
// its own: the run-level guard stays with the engine that dispatched it.
// A block that fails ends the chain: the outcomes of the blocks before it
// come back with its error. A prefix of a chain runs too, its last block's
// output kept; a block that reads an output the chain does not hand it
// fails.
func (e *Engine) RunChainCtx(ctx context.Context, chain []int, plans map[int]*workflow.JoinTree, res *css.Result, observe []stats.Stat) ([]*RemoteBlock, error) {
	plan, err := physical.Compile(e.An, e.DB, physical.Options{
		Plans: plans, Res: res, Observe: observe, Reg: e.Reg,
	})
	if err != nil {
		return nil, err
	}
	rbs := make([]*RemoteBlock, 0, len(chain))
	var held map[int]*data.Late
	for i, block := range chain {
		if block < 0 || block >= len(plan.Blocks) {
			return rbs, fmt.Errorf("engine: no block %d in a compiled plan of %d", block, len(plan.Blocks))
		}
		rb, err := e.runChainBlock(ctx, plan.Blocks[block], res, held)
		if err != nil {
			return rbs, err
		}
		if i < len(chain)-1 {
			held = map[int]*data.Late{block: rb.Out}
			rb.Out = nil
		}
		rbs = append(rbs, rb)
	}
	return rbs, nil
}

// runChainBlock runs one block of RunChainCtx's chain over its own row
// budget and collector, held the output it reads.
func (e *Engine) runChainBlock(ctx context.Context, bp *physical.BlockPlan, res *css.Result, held map[int]*data.Late) (*RemoteBlock, error) {
	var col *collector
	if res != nil {
		col = newCollector()
	}
	env := newRunEnv(ctx, newRowBudget(e.MaxRows), e.Faults)
	rb, err := env.runBlock(bp, held, col, e.CollectMetrics)
	if err != nil {
		return nil, err
	}
	rb.Degraded = col.failedStats()
	rb.Retries = env.retries.Load()
	rb.Sources = make(map[string]int) // every upstream a scan read is in held
	for _, n := range bp.Nodes {
		switch {
		case n.Kind != physical.OpScan:
		case n.FromBlock < 0:
			rb.Sources[n.SourceRel] = len(n.Src.Rows)
		default:
			for _, in := range held[n.FromBlock].Ins {
				rb.Sources[in.Src.Rel] = len(in.Src.Rows)
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
