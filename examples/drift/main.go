// Drift: the design-once / execute-repeatedly loop of the paper under
// changing data.
//
// An ETL workflow runs once per "day". The data characteristics drift day
// by day (a promotion makes one product dominate, then the customer base
// explodes). Each day's execution is instrumented, and the next day's run
// uses the plan that the freshly learned statistics prove optimal — so the
// chosen join order follows the data.
//
//	go run ./examples/drift
package main

import (
	"fmt"
	"log"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// day describes one day's data shape.
type day struct {
	label             string
	orders, logs, res int64
	logSkew           float64
}

func main() {
	days := []day{
		{"day 1: balanced", 1500, 1000, 40, 1.2},
		{"day 2: promo launches (log traffic spikes)", 1500, 3000, 40, 1.7},
		{"day 3: promo peak", 1500, 5000, 40, 1.9},
		{"day 4: reservations triple", 1500, 600, 900, 1.2},
		{"day 5: quiet day", 600, 300, 40, 1.1},
	}

	b := workflow.NewBuilder("daily-load")
	o := b.Source("Orders")
	l := b.Source("Weblog")
	r := b.Source("Reservation")
	j1 := b.Join(o, l, workflow.Attr{Rel: "Orders", Col: "sid"}, workflow.Attr{Rel: "Weblog", Col: "sid"})
	j2 := b.Join(j1, r, workflow.Attr{Rel: "Orders", Col: "rid"}, workflow.Attr{Rel: "Reservation", Col: "rid"})
	b.Sink(j2, "warehouse")
	g := b.Graph()

	for di, d := range days {
		db, cat := generate(d, int64(di))
		cy, err := core.Run(g, cat, db, core.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		blk := cy.Analysis.Blocks[0]
		opt, err := cy.RunOptimized()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", d.label)
		fmt.Printf("  designed plan %s work=%d rows\n", blk.Initial.Render(blk), cy.Observed.Rows)
		fmt.Printf("  learned plan  %s work=%d rows (%.2fx plan-cost improvement)\n\n",
			cy.Plans.Plans[0].Tree.Render(blk), opt.Rows, cy.Plans.Improvement())
	}
	fmt.Println("The learned join order tracks the drift: when the weblog explodes the")
	fmt.Println("reservation join runs first, and vice versa — with no designer involved.")
}

func generate(d day, seed int64) (engine.DB, *workflow.Catalog) {
	specs := []data.TableSpec{
		{Rel: "Orders", Card: d.orders, Columns: []data.ColumnSpec{
			{Name: "oid", Serial: true},
			{Name: "sid", Domain: 500, Skew: 1.3},
			{Name: "rid", Domain: 300, Skew: 1.3},
		}},
		{Rel: "Weblog", Card: d.logs, Columns: []data.ColumnSpec{
			{Name: "sid", Domain: 500, Skew: d.logSkew},
		}},
		{Rel: "Reservation", Card: d.res, Columns: []data.ColumnSpec{
			{Name: "rid", Domain: 300, Skew: 1.1},
		}},
	}
	db := engine.DB{}
	cat := &workflow.Catalog{}
	for i, s := range specs {
		tbl := data.Generate(s, seed*17+int64(i))
		db[s.Rel] = tbl
		cat.Relations = append(cat.Relations, data.CatalogEntry(tbl, s))
	}
	return db, cat
}
