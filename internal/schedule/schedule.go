// Package schedule realizes the multi-run observation plans of Section 6.1
// as executable artifacts: given a per-run memory budget, it asks the
// selector which statistics each run should gather, then constructs the
// concrete re-ordered join trees that make each run's statistics observable
// and executes the whole sequence, merging the observations. The paper
// leaves "determining the optimal statistics with plan re-ordering" as a
// future extension (Section 7.2); this package provides a working, honest
// realization: when one run's statistics cannot all coexist in a single
// plan, the run splits.
package schedule

import (
	"context"
	"fmt"

	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/payg"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// Plan is the executable multi-run schedule: per run, the statistics it
// observes and the join tree per block that exposes them (nil tree = the
// initial plan).
type Plan struct {
	Runs []*payg.Run
	// Budget echoes the per-run memory limit the schedule honors.
	Budget int64
}

// Build turns a selector budget plan into executable runs. The first
// budgeted run uses the initial plan (its statistics are initial-observable
// by construction); each later run is realized by one or more executions
// whose join trees expose the targets. An error is returned when a target
// cannot be exposed by any plan (cannot happen for ordinary SE targets).
func Build(u *selector.Universe, budget int64) (*Plan, error) {
	bp, err := selector.PlanWithBudget(u, budget)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Budget: budget}
	for runIdx, picks := range bp.Runs {
		statsOf := make([]stats.Stat, 0, len(picks))
		for _, i := range picks {
			statsOf = append(statsOf, u.Stats[i])
		}
		if runIdx == 0 {
			// Initial plan: everything the first run picked is observable
			// under it.
			plan.Runs = append(plan.Runs, &payg.Run{Observe: statsOf})
			continue
		}
		subRuns, err := realize(u.Res, statsOf)
		if err != nil {
			return nil, err
		}
		plan.Runs = append(plan.Runs, subRuns...)
	}
	return plan, nil
}

// realize splits a statistic list into executions whose join trees expose
// every target.
func realize(res *css.Result, list []stats.Stat) ([]*payg.Run, error) {
	pending := append([]stats.Stat(nil), list...)
	var out []*payg.Run
	for guard := 0; len(pending) > 0; guard++ {
		if guard > 1024 {
			return nil, fmt.Errorf("schedule: realization did not converge")
		}
		run := &payg.Run{Trees: make(map[int]*workflow.JoinTree)}
		var rest []stats.Stat
		for _, s := range pending {
			if compatible(res, run, s) {
				run.Observe = append(run.Observe, s)
				continue
			}
			rest = append(rest, s)
		}
		if len(run.Observe) == 0 {
			return nil, fmt.Errorf("schedule: statistic %v cannot be exposed by any plan", rest[0].Key())
		}
		out = append(out, run)
		pending = rest
	}
	return out, nil
}

// compatible tries to fit statistic s into the run, extending or creating
// the run's per-block tree when needed. It returns false when s conflicts
// with what the run's trees already expose.
func compatible(res *css.Result, run *payg.Run, s stats.Stat) bool {
	t := s.Target
	blk := res.Analysis.Blocks[t.Block]
	sp := res.Space(t.Block)
	// Chain points are exposed by every plan.
	if t.IsChainPoint() || t.Set.Len() == 1 && !t.IsReject() {
		return true
	}
	cur, has := run.Trees[t.Block]
	switch {
	case t.IsReject():
		// Needs a tree joining {t} directly over the reject edge; a
		// two-input variant additionally needs the aux partner, which the
		// engine joins off-plan, so the same condition suffices.
		ti := t.RejectInput
		e := blk.Joins[t.RejectEdge]
		k := e.LeftInput
		if k == ti {
			k = e.RightInput
		}
		order := append([]int{ti, k}, others(blk, ti, k)...)
		order = payg.ConnectOrder(blk, order)
		if order == nil {
			return false
		}
		tree := payg.LeftDeepTree(blk, order)
		if has && !sameExposure(sp, cur, tree) {
			return exposesReject(sp, cur, ti, t.RejectEdge)
		}
		run.Trees[t.Block] = tree
		return true
	default:
		// An SE target: the tree must produce t.Set as a node.
		if has {
			return exposesSE(cur, t.Set)
		}
		order := seOrder(blk, sp, t.Set)
		if order == nil {
			return false
		}
		run.Trees[t.Block] = payg.LeftDeepTree(blk, order)
		return true
	}
}

// seOrder builds a full connected order whose prefix realizes the SE.
func seOrder(blk *workflow.Block, sp *expr.Space, se expr.Set) []int {
	members := se.Members()
	order := payg.ConnectOrder(blk, members)
	if order == nil {
		return nil
	}
	return payg.ConnectOrder(blk, append(order, others(blk, order...)...))
}

// others lists the block inputs not in the given set.
func others(blk *workflow.Block, in ...int) []int {
	used := make(map[int]bool, len(in))
	for _, i := range in {
		used[i] = true
	}
	var out []int
	for i := 0; i < blk.NumInputs(); i++ {
		if !used[i] {
			out = append(out, i)
		}
	}
	return out
}

// exposesSE reports whether the tree produces the SE as a node.
func exposesSE(t *workflow.JoinTree, se expr.Set) bool {
	if t == nil {
		return false
	}
	if expr.NewSet(t.Inputs()...) == se {
		return true
	}
	if t.IsLeaf() {
		return false
	}
	return exposesSE(t.Left, se) || exposesSE(t.Right, se)
}

// exposesReject reports whether the tree joins {ti} directly over edge f.
func exposesReject(sp *expr.Space, t *workflow.JoinTree, ti, f int) bool {
	if t == nil || t.IsLeaf() {
		return false
	}
	if t.Join == f {
		if t.Left.IsLeaf() && t.Left.Leaf == ti || t.Right.IsLeaf() && t.Right.Leaf == ti {
			return true
		}
	}
	return exposesReject(sp, t.Left, ti, f) || exposesReject(sp, t.Right, ti, f)
}

// sameExposure reports whether two trees expose the same SE set (cheap
// structural check used before rejecting a conflicting tree request).
func sameExposure(sp *expr.Space, a, b *workflow.JoinTree) bool {
	return render(a) == render(b)
}

func render(t *workflow.JoinTree) string {
	if t == nil {
		return ""
	}
	return t.String()
}

// ExecuteCtx runs the schedule through payg.ObserveRuns (later runs observe
// under re-ordered plans) and returns the merged observations and each
// run's placement (nil entries without a dispatcher); a statistic no run's
// plans exposed is an error.
func ExecuteCtx(ctx context.Context, eng *engine.Engine, res *css.Result, plan *Plan) (*stats.Store, []*engine.DistReport, error) {
	merged, _, dist, err := payg.ObserveRuns(ctx, eng, res, plan.Runs)
	if err != nil {
		return nil, nil, fmt.Errorf("schedule: %w", err)
	}
	for _, run := range plan.Runs {
		for _, s := range run.Observe {
			if !merged.Has(s) {
				return nil, nil, fmt.Errorf("schedule: statistic %v was never exposed", s.Key())
			}
		}
	}
	return merged, dist, nil
}
