// Memory budget: the resource-constrained observation of Section 6.1.
//
// When the optimal statistics do not fit the per-run memory limit, the
// framework schedules observation across several executions: the first run
// observes what the initial plan exposes within budget; later runs are
// re-ordered so remaining statistics (often plain trivial-CSS counters)
// become directly observable. The example sweeps the budget and prints the
// resulting schedules.
//
//	go run ./examples/memorybudget
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/schedule"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/suite"
)

func main() {
	// wf03 is the union–division showcase: its unconstrained optimum is a
	// few hundred units, but pretend memory is scarcer still.
	w := suite.MustGet(3)
	cfg := core.DefaultConfig()
	p := core.NewPlan(w.Graph, w.Catalog, cfg.CSS)
	unconstrained, err := p.Selection(cfg.Method)
	if err != nil {
		log.Fatal(err)
	}
	u, _ := p.Universe() // computed by the selection
	res, an := u.Res, u.Res.Analysis
	fmt.Printf("workflow %s — unconstrained optimum: %d memory units in ONE run\n\n",
		w.Name, unconstrained.Memory)

	blk := an.Blocks[0]
	for _, budget := range []int64{2 * unconstrained.Memory, unconstrained.Memory / 2, 64, 16} {
		plan, err := selector.PlanWithBudget(u, budget)
		if err != nil {
			fmt.Printf("budget %4d: %v\n", budget, err)
			continue
		}
		fmt.Printf("budget %4d units → %d run(s), total cost %.0f\n", budget, plan.NumRuns(), plan.TotalCost)
		for r, run := range plan.Runs {
			fmt.Printf("  run %d (mem %d):\n", r+1, plan.Memory[r])
			for _, i := range run {
				note := ""
				if r > 0 {
					note = "  [plan re-ordered to expose this]"
				}
				fmt.Printf("    observe %s%s\n", u.Stats[i].Label(blk), note)
			}
		}
		fmt.Println()
	}
	fmt.Println("Tighter budgets trade memory for executions, mirroring the space–time")
	fmt.Println("trade-off the paper describes in Sections 6.1 and 8.2.")

	// Execute the tightest schedule for real: build concrete re-ordered
	// plans per run, run them, and derive every SE cardinality from the
	// merged observations.
	plan, err := schedule.Build(u, 64)
	if err != nil {
		log.Fatal(err)
	}
	db := w.Data(0.002)
	eng := engine.New(an, db, nil)
	store, _, err := schedule.ExecuteCtx(context.Background(), eng, res, plan)
	if err != nil {
		log.Fatal(err)
	}
	est := estimate.New(res, store)
	fmt.Printf("\nexecuted %d scheduled run(s) at budget 64; derived cardinalities:\n", len(plan.Runs))
	for _, se := range res.Space(0).SEs {
		card, err := est.CardOf(0, se)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  |%s| = %d\n", se.Label(blk), card)
	}
}
