// Quickstart: the smallest end-to-end use of the library.
//
// A three-relation ETL workflow (the paper's Figure 1) is analyzed, the
// minimal sufficient statistics are chosen, one instrumented execution of
// the designed plan collects them, and the optimizer then costs every
// reordering exactly and picks the best.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func main() {
	// 1. Describe the source relations and generate skewed sample data.
	specs := []data.TableSpec{
		{Rel: "Orders", Card: 5000, Columns: []data.ColumnSpec{
			{Name: "oid", Serial: true},
			{Name: "pid", Domain: 100, Skew: 1.5},
			{Name: "cid", Domain: 60, Skew: 1.3},
		}},
		{Rel: "Product", Card: 120, Columns: []data.ColumnSpec{
			{Name: "pid", Domain: 100, Skew: 1.1},
			{Name: "price", Domain: 900},
		}},
		{Rel: "Customer", Card: 70, Columns: []data.ColumnSpec{
			{Name: "cid", Domain: 60, Skew: 1.1},
			{Name: "region", Domain: 12},
		}},
	}
	db := engine.DB{}
	cat := &workflow.Catalog{}
	for i, s := range specs {
		tbl := data.Generate(s, int64(i)+1)
		db[s.Rel] = tbl
		cat.Relations = append(cat.Relations, data.CatalogEntry(tbl, s))
	}

	// 2. Design the workflow the way an ETL developer would:
	//    (Orders ⋈ Product) ⋈ Customer → warehouse.
	b := workflow.NewBuilder("retail")
	o := b.Source("Orders")
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	j2 := b.Join(j1, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "warehouse")

	// 3. One optimization cycle: analyze → choose statistics → run the
	//    designed plan instrumented → optimize with exact cardinalities.
	cy, err := core.Run(b.Graph(), cat, db, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	blk := cy.Analysis.Blocks[0]
	fmt.Printf("sub-expressions enumerated: %d\n", cy.CSS.NumSEs())
	fmt.Printf("candidate statistics sets:  %d\n", cy.CSS.NumCSS())
	fmt.Printf("statistics chosen (%s, memory %d units):\n", cy.Selection.Method, cy.Selection.Memory)
	for _, s := range cy.Selection.Observe {
		fmt.Printf("  observe %s\n", s.Label(blk))
	}
	fmt.Printf("\ndesigned plan:  %s (cost %.0f)\n", blk.Initial.Render(blk), cy.Plans.TotalInitialCost)
	fmt.Printf("optimized plan: %s (cost %.0f)\n", cy.Plans.Plans[0].Tree.Render(blk), cy.Plans.TotalCost)
	fmt.Printf("improvement:    %.2fx\n", cy.Plans.Improvement())

	// 4. Execute the optimized plan; the warehouse content is identical.
	opt, err := cy.RunOptimized()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwarehouse rows: %d (initial) = %d (optimized)\n",
		cy.Observed.Sinks["warehouse"].Card(), opt.Sinks["warehouse"].Card())
	fmt.Printf("engine work:    %d rows (initial) vs %d rows (optimized)\n",
		cy.Observed.Rows, opt.Rows)
}
