// Command experiments regenerates the paper's evaluation (Section 7) over
// the 30-workflow suite, with the ablations and extensions beside it, and
// prints every table as the markdown region EXPERIMENTS.md holds it in;
// `make experiments` writes the regions into that file.
//
// Usage:
//
//	experiments -exp=all      # every table, in EXPERIMENTS.md's order
//	experiments -exp=fig11    # one experiment: data (Section 7 table), fig9..fig12,
//	                          # e2e, greedy, budget, free, error, scale or work
//	experiments -wf 3         # the end-to-end row of one suite workflow
//	experiments -scale=0.01   # data scale of e2e, error and work
//
// A timed cell (fig10, and scale's gen and select columns) is the median of
// 5 sequential sweeps; the line under each timed table names the host and
// the date.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/essential-stats/etlopt/internal/experiments"
	"github.com/essential-stats/etlopt/internal/suite"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: data|fig9|fig10|fig11|fig12|e2e|greedy|budget|free|error|scale|work|all")
	scale := flag.Float64("scale", 0.002, "data scale of the plan executions in -exp=e2e, error and work")
	wfID := flag.Int("wf", 0, "print the end-to-end row of one suite workflow id (1..30) instead of -exp")
	flag.Parse()

	var tables []*experiments.Table
	var err error
	if *wfID != 0 {
		var t *experiments.Table
		t, err = experiments.EndToEndTable(*wfID, *scale)
		tables = []*experiments.Table{t}
	} else {
		tables, err = experiments.Tables(*exp, *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.As(err, new(*suite.UnknownWorkflowError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(t.Markdown())
	}
}
