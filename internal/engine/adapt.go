package engine

// Mid-run adaptive re-optimization hook. The block scheduler calls an
// AdaptCheck after every block it commits; when the check decides the
// evidence collected so far refutes the estimates that justified the
// not-yet-executed cone, the run stops at that boundary with a
// *ReplanSignal carrying the checkpoint. The caller (internal/core's
// adaptive driver) re-optimizes the remaining blocks, recompiles them and
// resumes from the checkpoint — completed blocks never re-run.
//
// Setting an AdaptCheck keeps one block in flight at a time, whatever the
// worker count and wherever blocks run (in-process or on remote workers):
// the check sequence, and therefore every replan decision, must be
// deterministic, and with concurrent blocks the set of completed blocks at
// each boundary would depend on goroutine timing. The check fires at the
// scheduler's single commit point, once the block's node metrics are on the
// plan — a worker ships them with its block — so it reads the same actuals
// under either placement. Intra-block parallelism is unaffected.

import (
	"github.com/essential-stats/etlopt/internal/physical"
)

// AdaptCheck inspects the run after `block` committed its boundary output.
// done maps every completed block index to its output; returning true stops
// the run at this boundary with a *ReplanSignal.
type AdaptCheck func(plan *physical.Plan, block int, done map[int]bool) bool

// ReplanSignal is the error a run returns when its AdaptCheck requested a
// mid-run replan. It is a clean stop, not a failure: the checkpoint holds
// every completed block's boundary output and the statistics observed so
// far, ready for Resume under a re-optimized plan.
type ReplanSignal struct {
	// Block is the boundary block after which the check fired.
	Block int
	// Checkpoint restores the completed blocks on Resume.
	Checkpoint *Checkpoint
}

func (r *ReplanSignal) Error() string {
	return "replan requested at block boundary"
}
