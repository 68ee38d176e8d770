// Command experiments regenerates the paper's evaluation tables and
// figures (Section 7) over the 30-workflow suite and prints them as text
// tables.
//
// Usage:
//
//	experiments -exp=all        # everything below
//	experiments -exp=data       # Section 7 data-characteristics table
//	experiments -exp=fig9       # workflow complexity (#SEs, #CSS ± union–division)
//	experiments -exp=fig10      # statistics-identification time
//	experiments -exp=fig11      # memory for the optimal statistics ± union–division
//	experiments -exp=fig12      # executions needed by the trivial-CSS baseline
//	experiments -exp=e2e        # end-to-end: observe once, cost all reorderings exactly
//	experiments -exp=greedy     # exact-vs-greedy ablation
//	experiments -exp=budget     # Section 6.1 memory-budget sweep
//	experiments -exp=free       # Section 6.2 free source statistics ablation
//	experiments -scale=0.01     # data scale for -exp=data and -exp=e2e
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"

	"github.com/essential-stats/etlopt/internal/experiments"
	"github.com/essential-stats/etlopt/internal/suite"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: data|fig9|fig10|fig11|fig12|e2e|greedy|budget|free|error|work|scale|all")
	scale := flag.Float64("scale", 0.002, "data scale for -exp=e2e")
	dataScale := flag.Float64("datascale", 1.0, "data scale for -exp=data (1.0 = the paper-sized relations)")
	seq := flag.Bool("seq", false, "measure workflows sequentially (timing-grade Figure 10 numbers)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "independent plan blocks executed concurrently in -exp=e2e and -exp=work (<=1 = sequential)")
	wfID := flag.Int("wf", 0, "restrict -exp=e2e to one suite workflow id (1..30)")
	flag.Parse()
	sequential = *seq
	experiments.Workers = *workers

	var err error
	switch {
	case *wfID != 0:
		err = runOne(*wfID, *scale)
	default:
		err = dispatch(*exp, *scale, *dataScale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		var unknown *suite.UnknownWorkflowError
		if errors.As(err, &unknown) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// runOne prints the end-to-end row for a single suite workflow.
func runOne(wfID int, scale float64) error {
	row, err := experiments.EndToEndWorkflow(wfID, scale)
	if err != nil {
		return err
	}
	return printE2E([]*experiments.E2ERow{row})
}

func dispatch(exp string, scale, dataScale float64) error {
	switch exp {
	case "data":
		return runData(dataScale)
	case "fig9", "fig10", "fig11", "fig12", "greedy":
		return runRows(exp)
	case "e2e":
		return runE2E(scale)
	case "budget":
		return runBudget()
	case "free":
		return runFree()
	case "error":
		return runError(scale)
	case "work":
		return runWork(scale)
	case "scale":
		return runScale()
	case "all":
		for _, e := range []func() error{
			func() error { return runData(dataScale) },
			func() error { return runRows("fig9") },
			func() error { return runRows("fig10") },
			func() error { return runRows("fig11") },
			func() error { return runRows("fig12") },
			func() error { return runRows("greedy") },
			func() error { return runE2E(scale) },
			runBudget,
			runFree,
			func() error { return runError(scale) },
			func() error { return runWork(scale) },
			runScale,
		} {
			if err := e(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func runData(scale float64) error {
	fmt.Printf("== E1: data characteristics (Section 7 table; scale %.3g) ==\n", scale)
	ch := experiments.DataCharacteristics(scale)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Stat\tCard\tUV")
	fmt.Fprintf(w, "Max\t%d\t%d\n", ch.CardMax, ch.UVMax)
	fmt.Fprintf(w, "Min\t%d\t%d\n", ch.CardMin, ch.UVMin)
	fmt.Fprintf(w, "Mean\t%d\t%d\n", ch.CardMean, ch.UVMean)
	fmt.Fprintf(w, "Median\t%d\t%d\n", ch.CardMedian, ch.UVMedian)
	w.Flush()
	fmt.Println()
	return nil
}

var (
	cachedRows []*experiments.WorkflowRow
	sequential bool
)

func rows() ([]*experiments.WorkflowRow, error) {
	if cachedRows != nil {
		return cachedRows, nil
	}
	var err error
	if sequential {
		cachedRows, err = experiments.RunAllSeq()
	} else {
		cachedRows, err = experiments.RunAll()
	}
	return cachedRows, err
}

func runRows(which string) error {
	rs, err := rows()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	switch which {
	case "fig9":
		fmt.Println("== E2 / Figure 9: complexity of the workflows ==")
		fmt.Fprintln(w, "wf\t#SEs\t#CSS\t#CSS+UD")
		for _, r := range rs {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\n", r.ID, r.SEs, r.CSSPlain, r.CSSUnionDiv)
		}
	case "fig10":
		fmt.Println("== E3 / Figure 10: time for statistics identification ==")
		fmt.Fprintln(w, "wf\tCSSgen\tCSSgen+UD\tselect\ttotal")
		for _, r := range rs {
			fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%v\n", r.ID, r.GenPlain.Round(100_000), r.GenUD.Round(100_000),
				r.SelectTime.Round(100_000), (r.GenUD + r.SelectTime).Round(100_000))
		}
	case "fig11":
		fmt.Println("== E4 / Figure 11: memory for observing the optimal statistics ==")
		fmt.Fprintln(w, "wf\tmem\tmem+UD\toptimal\toptimal+UD")
		for _, r := range rs {
			fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%v\n", r.ID, r.MemPlain, r.MemUD, r.OptimalPlain, r.OptimalUD)
		}
	case "fig12":
		fmt.Println("== E5 / Figure 12: executions to cover all SEs (trivial-CSS baseline) ==")
		fmt.Fprintln(w, "wf\tformulaLB\tsemanticLB\tfound\tframework")
		for _, r := range rs {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t1\n", r.ID, r.FormulaLB, r.SemanticLB, r.Found)
		}
	case "greedy":
		fmt.Println("== Ablation: exact ILP vs greedy heuristic (memory units, with UD) ==")
		fmt.Fprintln(w, "wf\texact\tgreedy\tgap%")
		for _, r := range rs {
			gap := 0.0
			if r.MemUD > 0 {
				gap = 100 * float64(r.GreedyMem-r.MemUD) / float64(r.MemUD)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%.1f\n", r.ID, r.MemUD, r.GreedyMem, gap)
		}
	}
	w.Flush()
	fmt.Println()
	return nil
}

func runE2E(scale float64) error {
	fmt.Printf("== E6: end-to-end — observe once, optimize exactly (scale %.3g) ==\n", scale)
	rs, err := experiments.EndToEnd(scale)
	if err != nil {
		return err
	}
	if err := printE2E(rs); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// printE2E writes the end-to-end table; every column is deterministic.
func printE2E(rows []*experiments.E2ERow) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "wf\tSEs\texact\tinitCost\toptCost\tspeedup\tinitRows\toptRows\tmaxQ")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d/%d\t%.0f\t%.0f\t%.2fx\t%d\t%d\t%.3g\n",
			r.ID, r.SEs, r.ExactSEs, r.SEs, r.InitCost, r.OptCost, r.Speedup, r.InitRows, r.OptRows, r.MaxQ)
	}
	return w.Flush()
}

func runBudget() error {
	fmt.Println("== Section 6.1: per-run memory budget vs executions needed (wf09) ==")
	rs, err := experiments.BudgetSweep(9)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "budget\truns\ttotalMem")
	for _, r := range rs {
		fmt.Fprintf(w, "%d\t%d\t%d\n", r.Budget, r.Runs, r.TotalMem)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func runError(scale float64) error {
	fmt.Printf("== Section 8 extension: estimation error vs histogram memory (scale %.3g) ==\n", scale)
	rs, err := experiments.ErrorSweep([]int{5, 9, 16, 17}, scale, []int{2, 8, 32, 128, 0})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "buckets\tmemory\tobsCPU\tmeanRelErr\tmaxRelErr\tjoins")
	for _, r := range rs {
		label := fmt.Sprintf("%d", r.Buckets)
		if r.Sketch {
			label = "cm-sketch"
		} else if r.Buckets == 0 {
			label = "exact"
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.4f\t%.4f\t%d\n", label, r.Memory, r.CPU, r.MeanRelErr, r.MaxRelErr, r.Joins)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func runWork(scale float64) error {
	fmt.Printf("== Baseline engine work: pay-as-you-go sequence vs one instrumented run (scale %.3g) ==\n", scale)
	rs, err := experiments.WorkComparison([]int{5, 9, 17, 30}, scale)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "wf\truns\tbaselineRows\tframeworkRows\tmultiplier")
	for _, r := range rs {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.1fx\n", r.ID, r.Runs, r.BaselineRows, r.FrameworkRows, r.Multiplier)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func runScale() error {
	fmt.Println("== Scalability: identification cost vs join width ==")
	rs, err := experiments.ScaleSweep(9)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "shape\tn\tstats\tCSS\tgen\tselect\tmem\toptimal")
	for _, r := range rs {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%v\t%v\t%d\t%v\n",
			r.Shape, r.N, r.Stats, r.CSS, r.Gen.Round(100_000), r.Select.Round(100_000), r.Mem, r.Optimal)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func runFree() error {
	fmt.Println("== Section 6.2: free source statistics ablation ==")
	rs, err := experiments.FreeSourceAblation()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "wf\tmem\tmem(free src)\tsaved%")
	for _, r := range rs {
		saved := 0.0
		if r.Mem > 0 {
			saved = 100 * float64(r.Mem-r.MemFree) / float64(r.Mem)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.1f\n", r.ID, r.Mem, r.MemFree, saved)
	}
	w.Flush()
	fmt.Println()
	return nil
}
