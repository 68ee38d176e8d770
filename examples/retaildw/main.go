// Retail data-warehouse walk-through: the paper's running example
// (Figures 1 and 6) in full detail.
//
// The example prints each stage of the framework: the enumerated
// sub-expressions, the candidate statistics sets generated for |O⋈P⋈C| and
// H^pid_{O⋈C}, the optimal observation set, the values actually observed in
// the instrumented run, and finally the exact cardinality of every
// sub-expression — including the ones the initial plan never produces.
//
//	go run ./examples/retaildw
package main

import (
	"fmt"
	"log"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/expr"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func main() {
	specs := []data.TableSpec{
		{Rel: "Orders", Card: 20000, Columns: []data.ColumnSpec{
			{Name: "oid", Serial: true},
			{Name: "pid", Domain: 400, Skew: 1.6},
			{Name: "cid", Domain: 250, Skew: 1.4},
		}},
		{Rel: "Product", Card: 600, Columns: []data.ColumnSpec{
			{Name: "pid", Domain: 400, Skew: 1.1},
			{Name: "price", Domain: 2000},
		}},
		{Rel: "Customer", Card: 300, Columns: []data.ColumnSpec{
			{Name: "cid", Domain: 250, Skew: 1.1},
			{Name: "region", Domain: 25},
		}},
	}
	db := engine.DB{}
	cat := &workflow.Catalog{}
	for i, s := range specs {
		tbl := data.Generate(s, 100+int64(i))
		db[s.Rel] = tbl
		cat.Relations = append(cat.Relations, data.CatalogEntry(tbl, s))
	}

	b := workflow.NewBuilder("retail-dw")
	o := b.Source("Orders")
	p := b.Source("Product")
	c := b.Source("Customer")
	j1 := b.Join(o, p, workflow.Attr{Rel: "Orders", Col: "pid"}, workflow.Attr{Rel: "Product", Col: "pid"})
	j2 := b.Join(j1, c, workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	b.Sink(j2, "warehouse")

	cy, err := core.Run(b.Graph(), cat, db, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	blk := cy.Analysis.Blocks[0]
	sp := cy.CSS.Space(0)

	fmt.Println("── 1. sub-expressions over all plans (Section 3.2.2) ──")
	for _, se := range sp.SEs {
		mark := " "
		if sp.Initial[se] {
			mark = "*" // produced by the designed plan
		}
		fmt.Printf(" %s %s\n", mark, se.Label(blk))
	}
	fmt.Println("   (* = observable in the designed plan (O⋈P)⋈C)")

	fmt.Println("\n── 2. candidate statistics sets for |O⋈P⋈C| (Section 4.3) ──")
	full := stats.NewCard(stats.BlockSE(0, sp.Full()))
	if id, ok := cy.CSS.Lookup(full); ok {
		for _, cs := range cy.CSS.CSS[id] {
			fmt.Printf("  %s\n", cy.CSS.Describe(cs).Label(blk))
		}
	}

	fmt.Println("\n── 3. optimal statistics to observe (Section 5) ──")
	fmt.Printf("  method=%s optimal=%v memory=%d units\n", cy.Selection.Method, cy.Selection.Optimal, cy.Selection.Memory)
	for _, s := range cy.Selection.Observe {
		fmt.Printf("  observe %s\n", s.Label(blk))
	}

	fmt.Println("\n── 4. observed values after one instrumented run ──")
	fmt.Print(indent(cy.Observed.Observed.Dump(blk)))

	fmt.Println("── 5. exact cardinality of EVERY sub-expression ──")
	for _, se := range sp.SEs {
		card, err := cy.Estimator.CardOf(0, se)
		if err != nil {
			log.Fatal(err)
		}
		note := ""
		if !sp.Initial[se] {
			note = "   (derived — never executed!)"
		}
		fmt.Printf("  |%s| = %d%s\n", se.Label(blk), card, note)
	}

	fmt.Println("\n── 6. cost-based optimization with exact cardinalities ──")
	fmt.Printf("  designed:  %s  cost %.0f\n", blk.Initial.Render(blk), cy.Plans.TotalInitialCost)
	fmt.Printf("  optimized: %s  cost %.0f  (%.2fx better)\n",
		cy.Plans.Plans[0].Tree.Render(blk), cy.Plans.TotalCost, cy.Plans.Improvement())

	// Sanity: the estimate for the unobservable O⋈C SE matches a real
	// execution of that ordering.
	var oIdx, cIdx int
	for i, in := range blk.Inputs {
		switch in.SourceRel {
		case "Orders":
			oIdx = i
		case "Customer":
			cIdx = i
		}
	}
	est, _ := cy.Estimator.CardOf(0, expr.NewSet(oIdx, cIdx))
	truth := bruteJoin(db["Orders"], db["Customer"],
		workflow.Attr{Rel: "Orders", Col: "cid"}, workflow.Attr{Rel: "Customer", Col: "cid"})
	fmt.Printf("\n  check: |Orders⋈Customer| derived=%d, brute force=%d\n", est, truth)
}

func bruteJoin(l, r *data.Table, la, ra workflow.Attr) int64 {
	lc, rc := l.Col(la), r.Col(ra)
	counts := map[int64]int64{}
	for _, row := range r.Rows {
		counts[row[rc]]++
	}
	var total int64
	for _, row := range l.Rows {
		total += counts[row[lc]]
	}
	return total
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		if line != "" {
			out += "  " + line + "\n"
		}
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
