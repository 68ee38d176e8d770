// Command etlopt analyzes ETL workflow documents (workflow + catalog JSON)
// and determines the essential statistics to observe, per Halasipuram et
// al., EDBT 2014.
//
// Usage:
//
//	etlopt suite                      # list the built-in 30-workflow suite
//	etlopt export -wf 3               # print suite workflow 3 as JSON
//	etlopt analyze -f flow.json       # blocks and sub-expressions
//	etlopt stats   -f flow.json       # optimal statistics to observe
//	etlopt stats   -wf 3 -method greedy -union-division=false
//	etlopt baseline -wf 21            # trivial-CSS-only execution counts
//	etlopt dot     -wf 8 | dot -Tsvg  # Graphviz rendering with block clusters
//	etlopt run     -wf 3 -scale 0.002 # full cycle over generated data
//	etlopt run     -f flow.json -data dir/   # full cycle over CSV flat files
//	etlopt run     -wf 3 -metrics=table      # …plus per-operator metrics and the q-error report
//	etlopt explain -wf 3              # compiled physical plan with the taps `run` would place (core.Plan)
//	etlopt explain -wf 3 -derive      # …plus the derivation tree of every SE cardinality
//	etlopt explain -wf 3 -metrics=json       # …plus a Metrics section from an instrumented run
//	etlopt gendata -wf 3 -out dir/    # export a suite workflow's data as CSVs
//	etlopt schedule -wf 3 -budget 64  # Section 6.1 multi-run observation schedule
//	etlopt report  -wf 3 > cycle.md   # markdown report of one full cycle
//	etlopt run     -wf 3 -save-stats wf03.stats   # …and persist the observed statistics
//	etlopt serve   -catalog dir -addr :8080       # statistics-serving daemon (docs/ARCHITECTURE.md)
//	etlopt worker  -addr :9091                    # block-execution worker (docs/DISTRIBUTED.md)
//	etlopt run     -wf 3 -worker-addrs http://localhost:9091,http://localhost:9092   # blocks run on the workers
//	etlopt run     -wf 3 -worker-addrs … -metrics=json   # placement composes with every other flag
//
// A workflow document is the JSON form of workflow.Document: the operator
// DAG plus the catalog of relations, domains and (optionally) functional
// dependencies. `etlopt export` produces examples to start from.
//
// The -metrics output on stdout is deterministic (row counts and q-errors
// only); the wall-clock timing summary goes to stderr.
//
// Runs honor -timeout and SIGINT/SIGTERM: the engine stops promptly, and
// whatever metrics the partial run gathered are still flushed (marked
// partial) before exiting. -faults injects deterministic failures for
// robustness testing (see docs/FAULTS.md), e.g.
//
//	etlopt run -wf 3 -faults seed=7,rate=1,transient=1   # retried transparently
//	etlopt run -wf 3 -faults seed=7,rate=0.4,kinds=tap   # degraded observation
//
// Exit codes: 0 on success, 1 on any runtime error (bad input file,
// failed run, exceeded -max-rows guard), 2 on usage errors (unknown
// subcommand, a flag it does not read — `etlopt <subcommand> -h` lists the
// flags it does — missing arguments, bad -wf, -method or -faults value), 3
// when the run was cancelled (SIGINT/SIGTERM) or hit the -timeout deadline.
//
// A -worker-addrs run that loses every worker is NOT an error: the
// coordinator completes the run in-process from the blocks it committed,
// prints a "distributed: ... fell back in-process" summary on stderr, and
// exits 0 — outputs are byte-identical to a single-process run, only the
// placement degraded (docs/DISTRIBUTED.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
	"unicode"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/estimate"
	"github.com/essential-stats/etlopt/internal/faults"
	"github.com/essential-stats/etlopt/internal/payg"
	"github.com/essential-stats/etlopt/internal/physical"
	"github.com/essential-stats/etlopt/internal/schedule"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/serve"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/suite"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// options holds every etlopt flag's value; newFlags is the only place a
// flag is registered.
type options struct {
	file        string
	wfID        int
	method      selector.Method
	unionDiv    bool
	scale       float64
	dataDir     string
	outDir      string
	budget      int64
	workers     int
	maxRows     int64
	derive      bool
	metrics     string
	timeout     time.Duration
	faults      *faults.Injector
	saveStats   string
	addr        string
	workerAddrs string
	catalog     string
	serve       serve.Options
}

// commands is the one table of etlopt's subcommands: what each does and
// the flags it reads. newFlags registers only the row's flags, so any other
// flag is a usage error and -h lists only the flags that apply.
var commands = map[string]struct {
	run   func(ctx context.Context, o *options) error
	flags string
}{
	"suite":    {listSuite, ""},
	"export":   {export, "wf"},
	"analyze":  {withDoc(analyze), "f wf union-division"},
	"stats":    {withDoc(statsCmd), "f wf method union-division"},
	"baseline": {withDoc(baseline), "f wf"},
	"dot":      {withDoc(dot), "f wf"},
	"run":      {runCycle, "f wf method union-division scale data workers max-rows metrics timeout faults save-stats worker-addrs"},
	"explain":  {explainCmd, "f wf method union-division scale data workers max-rows metrics derive timeout faults"},
	"gendata":  {genData, "wf scale out"},
	"schedule": {scheduleCmd, "wf union-division scale budget workers max-rows timeout faults worker-addrs"},
	"report":   {reportCmd, "wf method union-division scale workers max-rows timeout faults worker-addrs"},
	"serve":    {serveCmd, "catalog addr drift cache-bytes max-solves solve-queue"},
	"worker":   {workerCmd, "addr"},
}

// newFlags registers the flags subcommand cmd reads, per commands;
// TestEveryFlagIsDriven requires a script to drive each (cmd, flag) pair.
func newFlags(cmd string) (*flag.FlagSet, *options) {
	o := &options{scale: 0.002}
	all := new(flag.FlagSet) // every flag; only cmd's row reaches fs
	all.StringVar(&o.file, "f", "", "workflow document (JSON) to load")
	all.IntVar(&o.wfID, "wf", 0, "built-in suite workflow id (1..30) instead of -f")
	all.Func("method", "statistics selection method: exact (default, the proven optimum of the paper's §5.2 program) | greedy (the §5.3 heuristic)", func(s string) (err error) {
		o.method, err = selector.ParseMethod(s)
		return err
	})
	all.BoolVar(&o.unionDiv, "union-division", true, "enable the union–division rules J4/J5")
	all.Func("scale", "data scale, in (0, 1] (suite workflows only; default 0.002)", func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("%v is outside (0, 1]", v)
		}
		o.scale = v
		return nil
	})
	all.StringVar(&o.dataDir, "data", "", "directory of CSV flat files to run over (instead of generated data)")
	all.StringVar(&o.outDir, "out", "", "output directory for the CSV files")
	all.Int64Var(&o.budget, "budget", 0, "per-run memory budget (integer units)")
	all.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "independent plan blocks executed concurrently, one goroutine each (1 = sequential)")
	all.Int64Var(&o.maxRows, "max-rows", 100_000_000, "abort a run whose intermediate results exceed this many rows (0 = unguarded)")
	all.BoolVar(&o.derive, "derive", false, "also print the derivation tree of every SE cardinality")
	all.StringVar(&o.metrics, "metrics", "", "collect per-operator metrics and print them with the q-error report (table|json)")
	all.DurationVar(&o.timeout, "timeout", 0, "abort the run after this duration (0 = no deadline)")
	all.Func("faults", "inject deterministic faults, e.g. seed=7,rate=0.5,transient=1,kinds=tap|op (see docs/FAULTS.md)", func(s string) (err error) {
		o.faults, err = faults.Parse(s)
		return err
	})
	all.StringVar(&o.saveStats, "save-stats", "", "write the observed statistics to this file (the /v1/observe upload format)")
	all.StringVar(&o.addr, "addr", ":8080", "listen address")
	all.StringVar(&o.workerAddrs, "worker-addrs", "", "place plan blocks on these workers instead of local goroutines: comma-separated base URLs, e.g. http://localhost:9091,http://localhost:9092 (suite workflows only)")
	all.StringVar(&o.catalog, "catalog", "", "statistics catalog directory")
	all.Float64Var(&o.serve.DriftThreshold, "drift", serve.DefaultDriftThreshold, "max relative drift before cached solutions invalidate")
	all.Int64Var(&o.serve.CacheBytes, "cache-bytes", serve.DefaultCacheBytes, "solution-cache byte budget (LRU evicts beyond it)")
	all.IntVar(&o.serve.MaxSolves, "max-solves", 0, "max concurrent solver executions (0 = unlimited)")
	all.IntVar(&o.serve.SolveQueue, "solve-queue", serve.DefaultSolveQueue, "max requests waiting for a solve slot before shedding with 429 (with -max-solves)")

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	for _, name := range strings.Fields(commands[cmd].flags) {
		f := all.Lookup(name)
		fs.Var(f.Value, f.Name, f.Usage)
	}
	return fs, o
}

func main() {
	var cmd string
	if len(os.Args) > 1 {
		cmd = os.Args[1]
	}
	c, ok := commands[cmd]
	if !ok {
		fmt.Fprintln(os.Stderr, "usage: etlopt <suite|export|analyze|stats|baseline|dot|run|explain|gendata|schedule|report|serve|worker> [-f flow.json | -wf N] [flags]")
		os.Exit(2)
	}
	fs, o := newFlags(cmd)
	_ = fs.Parse(os.Args[2:]) // flag.ExitOnError: a flag cmd does not read, or a bad value, exits 2

	// Runs honor SIGINT/SIGTERM and -timeout through one context; engines
	// poll it at operator and chunk boundaries, so cancellation is prompt
	// and the partial results remain consistent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	if err := c.run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "etlopt:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a top-level error onto the documented process exit codes:
// 3 for cancellation (SIGINT/SIGTERM or the -timeout deadline), 2 for usage
// errors (a missing argument or an unknown suite workflow, like a bad flag),
// 1 for any other runtime error. A nil error — including a distributed run
// that fell back in-process and completed degraded — exits 0.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 3
	case errors.As(err, new(*suite.UnknownWorkflowError)), errors.As(err, new(usageError)):
		return 2
	}
	return 1
}

// usageError is a missing required argument: a usage error, like a flag
// the subcommand does not read.
type usageError string

func (e usageError) Error() string { return string(e) }

// serveCmd runs the statistics-serving daemon until SIGINT/SIGTERM, then
// drains and exits cleanly (exit code 0 — stopping a daemon is not an
// error).
func serveCmd(ctx context.Context, o *options) error {
	if o.catalog == "" {
		return usageError("serve needs -catalog <dir>")
	}
	cat, err := serve.OpenCatalog(o.catalog)
	if err != nil {
		return err
	}
	srv, err := serve.New(cat, nil, o.serve)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "etlopt serve: listening on %s, catalog %s (%d workflow(s) with statistics)\n",
		o.addr, o.catalog, len(cat.Workflows()))
	return srv.ListenAndServe(ctx, o.addr)
}

// loadWorkflow resolves the graph, catalog and database for run/explain —
// a suite workflow's generated data, or a directory of CSV flat files (the
// paper's no-statistics worst case: the catalog is inferred from the data).
func loadWorkflow(o *options) (*workflow.Graph, *workflow.Catalog, engine.DB, error) {
	switch {
	case o.dataDir != "":
		doc, err := loadDoc(o)
		if err != nil {
			return nil, nil, nil, err
		}
		tables, err := data.LoadDir(o.dataDir)
		if err != nil {
			return nil, nil, nil, err
		}
		return doc.Workflow, data.InferCatalog(tables), engine.DB(tables), nil
	case o.wfID != 0:
		w, err := suite.Get(o.wfID)
		if err != nil {
			return nil, nil, nil, err
		}
		return w.Graph, w.Catalog, w.Data(o.scale), nil
	default:
		return nil, nil, nil, usageError("run/explain need -wf <1..30>, or -f flow.json with -data dir/")
	}
}

// workerCmd runs a block-execution worker until SIGINT/SIGTERM, then
// drains and exits cleanly (exit code 0 — stopping a worker is how fleets
// scale down, not an error).
func workerCmd(ctx context.Context, o *options) error {
	wk := serve.NewWorker()
	fmt.Fprintf(os.Stderr, "etlopt worker: listening on %s\n", o.addr)
	return wk.ListenAndServe(ctx, o.addr)
}

// splitAddrs parses -worker-addrs: base URLs separated by commas or
// whitespace. An empty result means a purely local run.
func splitAddrs(list string) []string {
	return strings.FieldsFunc(list, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
}

// runConfig maps the flags onto one cycle's configuration; every subcommand
// that runs or schedules takes its configuration from here. Worker
// addresses make the run distributed; workers regenerate a suite
// workflow's data from (id, scale), so that is the only kind they can run.
func runConfig(o *options) (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Method = o.method
	cfg.CSS.UnionDivision = o.unionDiv
	cfg.Workers = o.workers
	cfg.MaxRows = o.maxRows
	cfg.CollectMetrics = o.metrics != ""
	cfg.Faults = o.faults
	addrs := splitAddrs(o.workerAddrs)
	if len(addrs) == 0 {
		return cfg, nil
	}
	if o.wfID == 0 || o.dataDir != "" {
		return cfg, fmt.Errorf("-worker-addrs needs a suite workflow (-wf 1..30) so workers can regenerate the data deterministically")
	}
	coord, err := serve.NewCoordinator(serve.RunSpec{
		WF:      o.wfID,
		Scale:   o.scale,
		MaxRows: o.maxRows,
		CSS:     cfg.CSS,
	}, serve.CoordinatorOptions{Addrs: addrs})
	if err != nil {
		return cfg, err
	}
	cfg.Dispatcher = coord
	return cfg, nil
}

// runCycle executes one full optimization cycle and prints its outcome.
func runCycle(ctx context.Context, o *options) error {
	g, cat, db, err := loadWorkflow(o)
	if err != nil {
		return err
	}
	cfg, err := runConfig(o)
	if err != nil {
		return err
	}
	cy, err := core.RunCtx(ctx, g, cat, db, cfg)
	if err != nil {
		// A cancelled or failed run still returns the partial cycle; flush
		// whatever metrics it gathered so the work isn't silently lost.
		if o.metrics != "" && cy != nil && cy.Metrics != nil {
			fmt.Printf("partial metrics (run aborted: %v):\n", err)
			if werr := cy.WriteMetrics(os.Stdout, o.metrics); werr != nil {
				return errors.Join(err, werr)
			}
		}
		return err
	}
	if o.saveStats != "" {
		f, err := os.Create(o.saveStats)
		if err != nil {
			return err
		}
		if err := cy.SaveStats(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved %d observed statistics to %s\n",
			cy.Observed.Observed.Len(), o.saveStats)
	}
	printCycle(cy)
	if o.metrics != "" {
		fmt.Println("\nmetrics:")
		if err := cy.WriteMetrics(os.Stdout, o.metrics); err != nil {
			return err
		}
		// Wall-clock split goes to stderr so stdout stays deterministic.
		cy.WriteMetricsTimings(os.Stderr)
	}
	return nil
}

// printDist prints a distributed run's placement summary, if the run had a
// dispatcher, on stderr: stdout stays byte-identical to a single-process run
// (the smoke test diffs them).
func printDist(d *engine.DistReport) {
	switch {
	case d == nil:
	case d.FellBack:
		fmt.Fprintf(os.Stderr, "distributed: fell back in-process (%s): %d block(s) completed remotely in %d exchange(s), %d run in-process; run completed whole, outputs identical\n",
			d.Reason, len(d.Remote), d.Exchanges, len(d.Local))
	default:
		fmt.Fprintf(os.Stderr, "distributed: %d block(s) executed remotely in %d exchange(s), %d run in-process, %d reassignment(s), %d worker(s) lost\n",
			len(d.Remote), d.Exchanges, len(d.Local), d.Reassigned, len(d.LostWorkers))
	}
}

// printCycle prints what an executed cycle observed and the plans it chose.
func printCycle(cy *core.Cycle) {
	printDist(cy.Observed.Dist)
	fmt.Printf("workflow %s\n", cy.Analysis.Graph.Name)
	if cy.Observed.Retries > 0 {
		fmt.Printf("recovered from transient faults: %d block retry(s)\n", cy.Observed.Retries)
	}
	if cy.Degraded() {
		fmt.Println(cy.Degradation)
	}
	fmt.Printf("observed %d statistics (memory %d units) in one instrumented run\n\n",
		len(cy.Selection.Observe), cy.Selection.Memory)
	for bi, blk := range cy.Analysis.Blocks {
		p, ok := cy.Plans.Plans[bi]
		if !ok || p.Tree == nil {
			continue
		}
		fmt.Printf("block %d designed:  %s (cost %.0f)\n", bi, blk.Initial.Render(blk), p.InitialCost)
		fmt.Printf("block %d optimized: %s (cost %.0f)\n", bi, p.Tree.Render(blk), p.Cost)
	}
	fmt.Printf("\nplan-cost improvement: %.2fx\n", cy.Plans.Improvement())
}

// explainCmd compiles the workflow's physical plan — the initial join trees
// instrumented with the selection `run` makes under the same flags — and
// prints it with every tap point, a golden rendering of what an instrumented
// run would do. Nothing executes unless -metrics or -derive ask for one
// instrumented cycle; the plan printed is then that cycle's, -metrics
// appends its per-operator row counts and q-error report, and -derive its
// outcome and the derivation tree of every SE cardinality.
func explainCmd(ctx context.Context, o *options) error {
	g, cat, db, err := loadWorkflow(o)
	if err != nil {
		return err
	}
	cfg, err := runConfig(o)
	if err != nil {
		return err
	}
	var (
		cy  *core.Cycle
		res *css.Result
		sel *selector.Selection
	)
	if o.metrics != "" || o.derive {
		if cy, err = core.RunCtx(ctx, g, cat, db, cfg); err != nil {
			return err
		}
		res, sel = cy.CSS, cy.Selection
	} else {
		p := core.NewPlan(g, cat, cfg.CSS)
		if sel, err = p.Selection(cfg.Method); err != nil {
			return err
		}
		res, _ = p.CSS() // computed by the selection
	}
	plan, err := physical.Compile(res.Analysis, db, physical.Options{Res: res, Observe: sel.Observe})
	if err != nil {
		return err
	}
	fmt.Printf("workflow %s — compiled physical plan (%d block(s), %d tap(s))\n\n",
		g.Name, len(plan.Blocks), plan.NumTaps())
	fmt.Print(plan.String())
	if o.metrics != "" {
		fmt.Println("\nmetrics (one instrumented run):")
		if err := cy.WriteMetrics(os.Stdout, o.metrics); err != nil {
			return err
		}
		cy.WriteMetricsTimings(os.Stderr)
	}
	if !o.derive {
		return nil
	}
	fmt.Println()
	printCycle(cy)
	fmt.Println("\nderivations:")
	for bi, sp := range cy.CSS.Spaces {
		blk := cy.Analysis.Blocks[bi]
		for _, se := range sp.SEs {
			ex, err := cy.Estimator.Explain(stats.NewCard(stats.BlockSE(bi, se)))
			if err != nil {
				return err
			}
			fmt.Print(ex.Render(blk))
		}
	}
	return nil
}

// reportCmd runs one cycle over a suite workflow and writes the markdown
// report to stdout.
func reportCmd(ctx context.Context, o *options) error {
	w, err := suiteWorkflow(o.wfID)
	if err != nil {
		return err
	}
	cfg, err := runConfig(o)
	if err != nil {
		return err
	}
	cy, err := core.RunCtx(ctx, w.Graph, w.Catalog, w.Data(o.scale), cfg)
	if err != nil {
		return err
	}
	printDist(cy.Observed.Dist)
	return cy.Report(os.Stdout)
}

// scheduleCmd builds and executes a Section 6.1 multi-run observation
// schedule under a per-run memory budget, then derives every SE cardinality
// from the merged observations.
func scheduleCmd(ctx context.Context, o *options) error {
	w, err := suiteWorkflow(o.wfID)
	if err != nil {
		return err
	}
	if o.budget <= 0 {
		return usageError("schedule needs -budget <units>")
	}
	cfg, err := runConfig(o)
	if err != nil {
		return err
	}
	u, err := core.NewPlan(w.Graph, w.Catalog, cfg.CSS).Universe()
	if err != nil {
		return err
	}
	res, an := u.Res, u.Res.Analysis
	plan, err := schedule.Build(u, o.budget)
	if err != nil {
		return err
	}
	fmt.Printf("budget %d units → %d scheduled run(s)\n", o.budget, len(plan.Runs))
	for r, run := range plan.Runs {
		fmt.Printf("run %d:\n", r+1)
		blocks := make([]int, 0, len(run.Trees))
		for bi := range run.Trees {
			blocks = append(blocks, bi)
		}
		sort.Ints(blocks)
		for _, bi := range blocks {
			fmt.Printf("  block %d re-ordered: %s\n", bi, run.Trees[bi].Render(an.Blocks[bi]))
		}
		for _, st := range run.Observe {
			fmt.Printf("  observe %s\n", st.Label(an.Blocks[st.Target.Block]))
		}
	}
	store, dist, err := schedule.ExecuteCtx(ctx, core.NewExecutor(an, w.Data(o.scale), cfg), res, plan)
	if err != nil {
		return err
	}
	for _, d := range dist {
		printDist(d)
	}
	est := estimate.New(res, store)
	fmt.Println("\nderived cardinalities after the schedule:")
	for bi, sp := range res.Spaces {
		blk := an.Blocks[bi]
		for _, se := range sp.SEs {
			card, err := est.CardOf(bi, se)
			if err != nil {
				return err
			}
			fmt.Printf("  |%s| = %d\n", se.Label(blk), card)
		}
	}
	return nil
}

// genData exports a suite workflow's generated relations as CSV files, so
// the flat-file path can be tried end to end.
func genData(_ context.Context, o *options) error {
	w, err := suiteWorkflow(o.wfID)
	if err != nil {
		return err
	}
	if o.outDir == "" {
		return usageError("gendata needs -out <dir>")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	db := w.Data(o.scale)
	for rel, tbl := range db {
		f, err := os.Create(filepath.Join(o.outDir, rel+".csv"))
		if err != nil {
			return err
		}
		if err := data.WriteCSV(f, tbl); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d relations to %s\n", len(db), o.outDir)
	return nil
}

// withDoc adapts a subcommand that prints a stage of a workflow document's
// plan, made without data, to the commands table.
func withDoc(f func(p *core.Plan, o *options) error) func(context.Context, *options) error {
	return func(_ context.Context, o *options) error {
		doc, err := loadDoc(o)
		if err != nil {
			return err
		}
		return f(core.NewPlan(doc.Workflow, doc.Catalog, css.Options{UnionDivision: o.unionDiv}), o)
	}
}

func loadDoc(o *options) (*workflow.Document, error) {
	switch {
	case o.file != "":
		fh, err := os.Open(o.file)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		return workflow.Decode(fh)
	case o.wfID != 0:
		w, err := suite.Get(o.wfID)
		if err != nil {
			return nil, err
		}
		return &workflow.Document{Workflow: w.Graph, Catalog: w.Catalog}, nil
	default:
		return nil, usageError("need -f <file> or -wf <1..30>")
	}
}

func listSuite(context.Context, *options) error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "id\tname\tnote")
	for _, wf := range suite.All() {
		fmt.Fprintf(w, "%d\t%s\t%s\n", wf.ID, wf.Name, wf.Note)
	}
	return w.Flush()
}

// suiteWorkflow resolves -wf for the subcommands that take only a suite
// workflow: an absent -wf is missing, not workflow 0.
func suiteWorkflow(id int) (*suite.Workflow, error) {
	if id == 0 {
		return nil, usageError("need -wf <1..30>")
	}
	return suite.Get(id)
}

func export(_ context.Context, o *options) error {
	w, err := suiteWorkflow(o.wfID)
	if err != nil {
		return err
	}
	doc := &workflow.Document{Workflow: w.Graph, Catalog: w.Catalog}
	return doc.Encode(os.Stdout)
}

func analyze(p *core.Plan, _ *options) error {
	res, err := p.CSS()
	if err != nil {
		return err
	}
	an := res.Analysis
	fmt.Printf("workflow %q: %d nodes, %d optimizable block(s)\n\n",
		an.Graph.Name, len(an.Graph.Nodes), len(an.Blocks))
	for bi, blk := range an.Blocks {
		sp := res.Space(bi)
		fmt.Printf("block %d: %d input(s), %d join(s)", bi, len(blk.Inputs), len(blk.Joins))
		if blk.RejectPinned {
			fmt.Print(" [pinned by reject link]")
		}
		fmt.Println()
		for _, in := range blk.Inputs {
			src := in.SourceRel
			if src == "" {
				src = fmt.Sprintf("output of block %d", in.FromBlock)
			}
			fmt.Printf("  input %-14s ← %s (%d pushed-down op(s))\n", in.Name, src, len(in.Ops))
		}
		if blk.Initial != nil {
			fmt.Printf("  designed plan: %s\n", blk.Initial.Render(blk))
		}
		fmt.Printf("  sub-expressions (%d):\n", len(sp.SEs))
		for _, se := range sp.SEs {
			mark := " "
			if sp.Initial[se] {
				mark = "*"
			}
			fmt.Printf("   %s %s\n", mark, se.Label(blk))
		}
		fmt.Println()
	}
	fmt.Printf("statistic universe: %d statistics, %d candidate statistics sets\n",
		len(res.Stats), res.NumCSS())
	return nil
}

func statsCmd(p *core.Plan, o *options) error {
	sel, err := p.Selection(o.method)
	if err != nil {
		return err
	}
	res, _ := p.CSS() // computed by the selection
	fmt.Printf("method=%s optimal=%v cost=%.0f memory=%d units\n\n", sel.Method, sel.Optimal, sel.Cost, sel.Memory)
	fmt.Println("observe:")
	for _, s := range sel.Observe {
		blk := res.Analysis.Blocks[s.Target.Block]
		extra := ""
		if res.RejectLinked(s) {
			extra = "   [requires added reject link]"
		}
		fmt.Printf("  block %d: %s%s\n", s.Target.Block, s.Label(blk), extra)
	}
	return nil
}

func baseline(p *core.Plan, _ *options) error {
	res, err := p.CSS()
	if err != nil {
		return err
	}
	rep := payg.Evaluate(res)
	fmt.Println("trivial-CSS-only baseline (pay-as-you-go, Section 7.3):")
	fmt.Printf("  formula lower bound:  %d execution(s)\n", rep.FormulaLB)
	fmt.Printf("  semantic lower bound: %d execution(s)\n", rep.SemanticLB)
	fmt.Printf("  found plan sequence:  %d execution(s)\n", rep.Found)
	fmt.Printf("  this framework:       1 execution\n")
	for _, br := range rep.PerBlock {
		fmt.Printf("  block %d (%d inputs): formula %d, semantic %d, found %d\n",
			br.Block, br.Inputs, br.FormulaLB, br.SemanticLB, br.Found)
	}
	return nil
}

func dot(p *core.Plan, _ *options) error {
	an, err := p.Analysis()
	if err != nil {
		return err
	}
	fmt.Print(an.Graph.DOT(an))
	return nil
}
