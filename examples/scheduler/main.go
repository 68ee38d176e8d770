// Scheduler: how a production deployment uses the framework across
// scheduled runs (fresh process each time).
//
// Night 1 runs the designed plan instrumented and saves the observed
// statistics to disk. Following nights load the statistics, optimize
// WITHOUT re-observing, and execute the optimized plan. Each night also
// measures drift against the saved statistics; when the data moves beyond a
// threshold, the workflow is re-instrumented and the statistics refreshed —
// the paper's "repeat at a user defined interval" made data-driven.
//
//	go run ./examples/scheduler
package main

import (
	"bytes"
	"fmt"
	"log"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

const driftThreshold = 0.25

func main() {
	g := buildFlow()
	// "Disk": the statistics file handed from one scheduled run to the next.
	var statsFile bytes.Buffer

	// Five nights; the weblog grows sharply on night 4.
	logCards := []int64{1200, 1300, 1250, 9000, 9100}
	var lastObserved *core.Cycle

	for night, logCard := range logCards {
		db, cat := nightData(int64(night), logCard)
		fmt.Printf("night %d (weblog %d rows):\n", night+1, logCard)

		if statsFile.Len() == 0 {
			// No statistics yet: instrumented run (night 1, or after drift).
			cy, err := core.Run(g, cat, db, core.DefaultConfig())
			if err != nil {
				log.Fatal(err)
			}
			statsFile.Reset()
			if err := cy.SaveStats(&statsFile); err != nil {
				log.Fatal(err)
			}
			lastObserved = cy
			fmt.Printf("  instrumented run: observed %d statistics, saved %d bytes\n",
				cy.Observed.Observed.Len(), statsFile.Len())
			fmt.Printf("  plan for next runs: %s\n\n", planString(cy))
			continue
		}

		// Fresh process: optimize from the saved statistics, no observation.
		saved, err := stats.ReadStore(bytes.NewReader(statsFile.Bytes()))
		if err != nil {
			log.Fatal(err)
		}
		p := core.NewPlan(g, cat, core.DefaultConfig().CSS)
		_, plans, err := p.Optimize(saved, core.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		an, _ := p.Analysis() // computed by the optimization
		eng := engine.New(an, db, nil)
		run, err := eng.RunPlans(plans.Trees(), nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  optimized run from saved statistics: %d rows of work\n", run.Rows)

		// Cheap drift probe: re-observe this night's statistics and compare.
		probe, err := core.Run(g, cat, db, core.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		drift := probe.DriftFrom(lastObserved)
		fmt.Printf("  drift vs saved statistics: max %.2f (threshold %.2f)\n", drift.MaxRel, driftThreshold)
		if drift.Exceeds(driftThreshold) {
			statsFile.Reset()
			if err := probe.SaveStats(&statsFile); err != nil {
				log.Fatal(err)
			}
			lastObserved = probe
			fmt.Printf("  → data drifted; statistics refreshed, new plan: %s\n", planString(probe))
		}
		fmt.Println()
	}
}

func planString(cy *core.Cycle) string {
	blk := cy.Analysis.Blocks[0]
	return cy.Plans.Plans[0].Tree.Render(blk)
}

func buildFlow() *workflow.Graph {
	b := workflow.NewBuilder("nightly-load")
	o := b.Source("Orders")
	l := b.Source("Weblog")
	r := b.Source("Region")
	j1 := b.Join(o, l, workflow.Attr{Rel: "Orders", Col: "sid"}, workflow.Attr{Rel: "Weblog", Col: "sid"})
	j2 := b.Join(j1, r, workflow.Attr{Rel: "Orders", Col: "rid"}, workflow.Attr{Rel: "Region", Col: "rid"})
	b.Sink(j2, "warehouse")
	return b.Graph()
}

func nightData(night, logCard int64) (engine.DB, *workflow.Catalog) {
	specs := []data.TableSpec{
		{Rel: "Orders", Card: 2500, Columns: []data.ColumnSpec{
			{Name: "oid", Serial: true},
			{Name: "sid", Domain: 400, Skew: 1.2},
			{Name: "rid", Domain: 200, Skew: 1.2},
		}},
		{Rel: "Weblog", Card: logCard, Columns: []data.ColumnSpec{
			{Name: "sid", Domain: 400, Skew: 1.2},
		}},
		{Rel: "Region", Card: 30, Columns: []data.ColumnSpec{
			{Name: "rid", Domain: 200},
		}},
	}
	db := engine.DB{}
	cat := &workflow.Catalog{}
	for i, s := range specs {
		// Orders and Region stay stable across nights; only the weblog is
		// regenerated (its seed varies by night).
		seed := int64(i) * 13
		if s.Rel == "Weblog" {
			seed += night * 101
		}
		tbl := data.Generate(s, seed)
		db[s.Rel] = tbl
		cat.Relations = append(cat.Relations, data.CatalogEntry(tbl, s))
	}
	return db, cat
}
