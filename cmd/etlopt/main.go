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
//	etlopt explain -wf 3              # compiled physical plan with tap points
//	etlopt explain -wf 3 -derive      # …plus the derivation tree of every SE cardinality
//	etlopt explain -wf 3 -metrics=json       # …plus a Metrics section from an instrumented run
//	etlopt gendata -wf 3 -out dir/    # export a suite workflow's data as CSVs
//	etlopt schedule -wf 3 -budget 64  # Section 6.1 multi-run observation schedule
//	etlopt report  -wf 3 > cycle.md   # markdown report of one full cycle
//	etlopt run     -wf 3 -save-stats wf03.stats   # …and persist the observed statistics
//	etlopt run     -wf 3 -stats-tier=approx       # observe sketch-backed approximate statistics
//	etlopt run     -wf 3 -stats-tier=auto         # sketches compete with exact taps on cost
//	etlopt run     -wf 3 -adaptive                # mid-run re-optimization at block boundaries
//	etlopt run     -wf 3 -adaptive -replan-skew 4 # force a replan (block-0 estimates skewed 4x)
//	etlopt serve   -catalog dir -addr :8080       # statistics-serving daemon (docs/ARCHITECTURE.md)
//	etlopt worker  -addr :9091                    # block-execution worker (docs/DISTRIBUTED.md)
//	etlopt run     -wf 3 -distributed -worker-addrs http://localhost:9091,http://localhost:9092
//	etlopt run     -wf 3 -distributed -worker-addrs … -metrics=json -adaptive   # placement composes with every run flag
//
// A workflow document is the JSON form of workflow.Document: the operator
// DAG plus the catalog of relations, domains and (optionally) functional
// dependencies. `etlopt export` produces examples to start from.
//
// The -metrics output on stdout is deterministic (row counts and q-errors
// only); the wall-clock timing summary goes to stderr.
//
// Runs honor -timeout and SIGINT/SIGTERM: the engines stop promptly, and
// whatever metrics the partial run gathered are still flushed (marked
// partial) before exiting. -faults injects deterministic failures for
// robustness testing (see docs/FAULTS.md), e.g.
//
//	etlopt run -wf 3 -faults seed=7,rate=1,transient=1   # retried transparently
//	etlopt run -wf 3 -faults seed=7,rate=0.4,kinds=tap   # degraded observation
//
// Exit codes: 0 on success, 1 on any runtime error (bad input file,
// failed run, exceeded -max-rows guard), 2 on usage errors (unknown
// subcommand, missing arguments, bad -wf or -faults value), 3 when the
// run was cancelled (SIGINT/SIGTERM) or hit the -timeout deadline.
//
// A -distributed run that loses every worker is NOT an error: the
// coordinator completes the run in-process from its last checkpoint,
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
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/costmodel"
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	file := fs.String("f", "", "workflow document (JSON) to load")
	wfID := fs.Int("wf", 0, "built-in suite workflow id (1..30) instead of -f")
	method := fs.String("method", "exact", "selection method: exact|greedy|lp")
	ud := fs.Bool("union-division", true, "enable the union–division rules J4/J5")
	scale := fs.Float64("scale", 0.002, "data scale for run/explain (suite workflows only)")
	dataDir := fs.String("data", "", "directory of CSV flat files to run over (instead of generated data)")
	outDir := fs.String("out", "", "output directory for gendata")
	budget := fs.Int64("budget", 0, "per-run memory budget for schedule (integer units)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "execution-layer worker goroutines (1 = sequential)")
	maxRows := fs.Int64("max-rows", 100_000_000, "abort a run whose intermediate results exceed this many rows (0 = unguarded)")
	derive := fs.Bool("derive", false, "explain: also print the derivation tree of every SE cardinality")
	metrics := fs.String("metrics", "", "run/explain: collect per-operator metrics and print them with the q-error report (table|json)")
	timeout := fs.Duration("timeout", 0, "abort run/explain/schedule/report after this duration (0 = no deadline)")
	faultSpec := fs.String("faults", "", "inject deterministic faults, e.g. seed=7,rate=0.5,transient=1,kinds=tap|op (see docs/FAULTS.md)")
	saveStats := fs.String("save-stats", "", "run: write the observed statistics to this file (the /v1/observe upload format)")
	statsTier := fs.String("stats-tier", "exact", "run/explain: statistics tier: exact | approx (sketch-backed observation wherever possible) | auto (sketches compete on cost)")
	adaptive := fs.Bool("adaptive", false, "run: execute the optimized plans adaptively, re-optimizing the not-yet-executed blocks when boundary actuals refute the estimates")
	replanThreshold := fs.Float64("replan-threshold", core.DefaultReplanThreshold, "run: base q-error a boundary actual must exceed to trigger an -adaptive replan (widened by plan-time calibration)")
	replanSkew := fs.Float64("replan-skew", 0, "run: multiply block 0's estimates by this factor during -adaptive boundary checks, forcing a replan (testing aid; 0 = off)")
	addr := fs.String("addr", ":8080", "serve/worker: listen address")
	distributed := fs.Bool("distributed", false, "run: place plan blocks on remote workers instead of local goroutines (needs -worker-addrs; suite workflows only; composes with -metrics, -adaptive, -faults, -workers, -max-rows)")
	workerAddrs := fs.String("worker-addrs", "", "run: comma-separated worker base URLs, e.g. http://localhost:9091,http://localhost:9092")
	heartbeat := fs.Duration("heartbeat", 0, "run: health-probe period while a block is leased to a worker (0 = 200ms default)")
	leaseTTL := fs.Duration("lease-ttl", 0, "run: lease time-to-live without a successful probe before a block is reassigned (0 = 2s default)")
	catalogDir := fs.String("catalog", "", "serve: statistics catalog directory")
	drift := fs.Float64("drift", serve.DefaultDriftThreshold, "serve: max relative drift before cached solutions invalidate")
	cache := fs.Bool("cache", true, "serve: cache solved responses (off still deduplicates concurrent solves)")
	cacheBytes := fs.Int64("cache-bytes", serve.DefaultCacheBytes, "serve: solution-cache byte budget (LRU evicts beyond it)")
	maxSolves := fs.Int("max-solves", 0, "serve: max concurrent solver executions (0 = unlimited)")
	solveQueue := fs.Int("solve-queue", serve.DefaultSolveQueue, "serve: max requests waiting for a solve slot before shedding with 429 (with -max-solves)")
	peers := fs.String("peers", "", "serve: comma-separated base URLs of every daemon instance (consistent-hash sharding; include this one)")
	selfURL := fs.String("self", "", "serve: this daemon's own base URL as listed in -peers")
	shardProxy := fs.Bool("shard-proxy", false, "serve: proxy requests to their shard owner instead of 307-redirecting")
	warm := fs.Int("warm", 0, "serve: pre-solve this many of the hottest cataloged workflows at boot")
	_ = fs.Parse(os.Args[2:])

	inj, err := faults.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etlopt:", err)
		os.Exit(2)
	}
	tier, err := core.ParseStatsTier(*statsTier)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etlopt:", err)
		os.Exit(2)
	}

	// Runs honor SIGINT/SIGTERM and -timeout through one context; engines
	// poll it at operator and chunk boundaries, so cancellation is prompt
	// and the partial results remain consistent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	switch cmd {
	case "suite":
		err = listSuite()
	case "export":
		err = export(*wfID)
	case "analyze":
		err = withDoc(*file, *wfID, analyze)
	case "stats":
		err = withDoc(*file, *wfID, func(doc *workflow.Document) error {
			return statsCmd(doc, *method, *ud)
		})
	case "baseline":
		err = withDoc(*file, *wfID, baseline)
	case "dot":
		err = withDoc(*file, *wfID, func(doc *workflow.Document) error {
			an, err := workflow.Analyze(doc.Workflow, doc.Catalog)
			if err != nil {
				return err
			}
			fmt.Print(doc.Workflow.DOT(an))
			return nil
		})
	case "run":
		err = runCycle(ctx, *file, *wfID, *dataDir, *scale, false, *workers, *maxRows, *metrics, inj, *saveStats, tier,
			adaptiveOptions(*adaptive, *replanThreshold, *replanSkew),
			distOptionsFor(*distributed, *workerAddrs, *heartbeat, *leaseTTL))
	case "serve":
		err = serveCmd(ctx, *addr, *catalogDir, serve.Options{
			DriftThreshold: *drift,
			DisableCache:   !*cache,
			CacheBytes:     *cacheBytes,
			MaxSolves:      *maxSolves,
			SolveQueue:     *solveQueue,
			Peers:          splitList(*peers),
			Self:           *selfURL,
			ShardProxy:     *shardProxy,
		}, *warm)
	case "worker":
		err = workerCmd(ctx, *addr)
	case "explain":
		err = explainCmd(ctx, *file, *wfID, *dataDir, *scale, *derive, *workers, *maxRows, *metrics, inj, tier)
	case "gendata":
		err = genData(*wfID, *scale, *outDir)
	case "schedule":
		err = scheduleCmd(ctx, *wfID, *scale, *budget, *workers, *maxRows, inj)
	case "report":
		err = reportCmd(ctx, *wfID, *scale, inj)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "etlopt:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a top-level error onto the documented process exit codes:
// 3 for cancellation (SIGINT/SIGTERM or the -timeout deadline), 2 for
// usage errors (an unknown suite workflow, like a bad subcommand), 1 for
// any other runtime error. A nil error — including a distributed run that
// fell back in-process and completed degraded — exits 0.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 3
	case errors.As(err, new(*suite.UnknownWorkflowError)):
		return 2
	}
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: etlopt <suite|export|analyze|stats|baseline|dot|run|explain|gendata|schedule|report|serve|worker> [-f flow.json | -wf N] [flags]")
}

// serveCmd runs the statistics-serving daemon until SIGINT/SIGTERM, then
// drains and exits cleanly (exit code 0 — stopping a daemon is not an
// error).
func serveCmd(ctx context.Context, addr, catalogDir string, opts serve.Options, warm int) error {
	if catalogDir == "" {
		return fmt.Errorf("serve needs -catalog <dir>")
	}
	cat, err := serve.OpenCatalog(catalogDir)
	if err != nil {
		return err
	}
	srv, err := serve.New(cat, nil, opts)
	if err != nil {
		return err
	}
	if warm > 0 {
		n := srv.Warm(ctx, warm)
		fmt.Fprintf(os.Stderr, "etlopt serve: warmed %d workflow(s)\n", n)
	}
	fmt.Fprintf(os.Stderr, "etlopt serve: listening on %s, catalog %s (%d workflow(s) with statistics)\n",
		addr, catalogDir, len(cat.Workflows()))
	return srv.ListenAndServe(ctx, addr)
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// loadWorkflow resolves the graph, catalog and database for run/explain —
// a suite workflow's generated data, or a directory of CSV flat files (the
// paper's no-statistics worst case: the catalog is inferred from the data).
func loadWorkflow(file string, wfID int, dataDir string, scale float64) (*workflow.Graph, *workflow.Catalog, engine.DB, error) {
	switch {
	case dataDir != "":
		doc, err := loadDoc(file, wfID)
		if err != nil {
			return nil, nil, nil, err
		}
		tables, err := data.LoadDir(dataDir)
		if err != nil {
			return nil, nil, nil, err
		}
		return doc.Workflow, data.InferCatalog(tables), engine.DB(tables), nil
	case wfID != 0:
		w, err := suite.Get(wfID)
		if err != nil {
			return nil, nil, nil, err
		}
		return w.Graph, w.Catalog, w.Data(scale), nil
	default:
		return nil, nil, nil, fmt.Errorf("run/explain need -wf <1..30>, or -f flow.json with -data dir/")
	}
}

// workerCmd runs a block-execution worker until SIGINT/SIGTERM, then
// drains and exits cleanly (exit code 0 — stopping a worker is how fleets
// scale down, not an error).
func workerCmd(ctx context.Context, addr string) error {
	wk := serve.NewWorker()
	fmt.Fprintf(os.Stderr, "etlopt worker: listening on %s\n", addr)
	return wk.ListenAndServe(ctx, addr)
}

// distOptions carries the -distributed flag family.
type distOptions struct {
	addrs     []string
	heartbeat time.Duration
	leaseTTL  time.Duration
}

// distOptionsFor maps the -distributed/-worker-addrs/-heartbeat/-lease-ttl
// flags onto coordinator options; nil means a purely local run.
func distOptionsFor(on bool, addrs string, heartbeat, leaseTTL time.Duration) *distOptions {
	if !on {
		return nil
	}
	d := &distOptions{heartbeat: heartbeat, leaseTTL: leaseTTL}
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			d.addrs = append(d.addrs, a)
		}
	}
	return d
}

// adaptiveOptions maps the -adaptive/-replan-threshold/-replan-skew flags
// onto the core driver's options; nil means a plain optimized run.
func adaptiveOptions(on bool, threshold, skew float64) *core.AdaptiveOptions {
	if !on {
		return nil
	}
	opts := &core.AdaptiveOptions{Threshold: threshold}
	if skew > 0 {
		opts.Skew = map[int]float64{0: skew}
	}
	return opts
}

// runCycle executes one full optimization cycle, optionally printing the
// derivation tree of every SE cardinality.
func runCycle(ctx context.Context, file string, wfID int, dataDir string, scale float64, explain bool, workers int, maxRows int64, metricsFmt string, inj *faults.Injector, saveStats string, tier core.StatsTier, adapt *core.AdaptiveOptions, dist *distOptions) error {
	g, cat, db, err := loadWorkflow(file, wfID, dataDir, scale)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.MaxRows = maxRows
	cfg.CollectMetrics = metricsFmt != ""
	cfg.Faults = inj
	cfg.StatsTier = tier
	if dist != nil {
		if wfID == 0 || dataDir != "" {
			return fmt.Errorf("-distributed needs a suite workflow (-wf 1..30) so workers can regenerate the data deterministically")
		}
		coord, err := serve.NewCoordinator(serve.RunSpec{
			WF:      wfID,
			Scale:   scale,
			MaxRows: maxRows,
			CSS:     cfg.CSS,
		}, serve.CoordinatorOptions{
			Addrs:          dist.addrs,
			HeartbeatEvery: dist.heartbeat,
			LeaseTTL:       dist.leaseTTL,
		})
		if err != nil {
			return err
		}
		cfg.Dispatcher = coord
	}
	cy, err := core.RunCtx(ctx, g, cat, db, cfg)
	if err != nil {
		// A cancelled or failed run still returns the partial cycle; flush
		// whatever metrics it gathered so the work isn't silently lost.
		if metricsFmt != "" && cy != nil && cy.Metrics != nil {
			fmt.Printf("partial metrics (run aborted: %v):\n", err)
			if werr := cy.WriteMetrics(os.Stdout, metricsFmt); werr != nil {
				return errors.Join(err, werr)
			}
		}
		return err
	}
	if saveStats != "" {
		f, err := os.Create(saveStats)
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
			cy.Observed.Observed.Len(), saveStats)
	}
	// The distributed placement summary goes to stderr: stdout stays
	// byte-identical to a single-process run (the smoke test diffs them).
	if cy.Observed != nil && cy.Observed.Dist != nil {
		d := cy.Observed.Dist
		if d.FellBack {
			fmt.Fprintf(os.Stderr, "distributed: fell back in-process (%s): %d block(s) completed remotely, %d from the last checkpoint locally; run completed whole, outputs identical\n",
				d.Reason, len(d.Remote), len(d.Local))
		} else {
			fmt.Fprintf(os.Stderr, "distributed: %d block(s) executed remotely, %d reassignment(s), %d worker(s) lost\n",
				len(d.Remote), d.Reassigned, len(d.LostWorkers))
		}
	}
	fmt.Printf("workflow %s\n", g.Name)
	if cy.Observed != nil && cy.Observed.Retries > 0 {
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
	fmt.Printf("\nplan-cost improvement: %.2fx\n", cy.Improvement())
	_ = scale
	if adapt != nil {
		ar, aerr := cy.RunOptimizedAdaptiveCtx(ctx, *adapt)
		if aerr != nil {
			return aerr
		}
		fmt.Println()
		fmt.Print(ar.Summary())
		fmt.Printf("adaptive run processed %d rows into %d sink(s)\n", ar.Run.Rows, len(ar.Run.Sinks))
	}
	if metricsFmt != "" {
		fmt.Println("\nmetrics:")
		if err := cy.WriteMetrics(os.Stdout, metricsFmt); err != nil {
			return err
		}
		// Wall-clock split goes to stderr so stdout stays deterministic.
		cy.WriteMetricsTimings(os.Stderr)
	}
	if !explain {
		return nil
	}
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

// explainCmd compiles the workflow's physical plan — the initial join trees
// instrumented with the exact-method statistic selection — and prints it
// with every tap point. The output is deterministic (no execution happens
// unless -metrics or -derive ask for it), so it doubles as a golden
// rendering of what an instrumented run would do. With -metrics it
// additionally executes one instrumented cycle and appends a Metrics
// section (per-operator row counts plus the q-error feedback report); with
// -derive it runs the full cycle and prints the derivation tree of every
// SE cardinality.
func explainCmd(ctx context.Context, file string, wfID int, dataDir string, scale float64, derive bool, workers int, maxRows int64, metricsFmt string, inj *faults.Injector, tier core.StatsTier) error {
	g, cat, db, err := loadWorkflow(file, wfID, dataDir, scale)
	if err != nil {
		return err
	}
	an, err := workflow.Analyze(g, cat)
	if err != nil {
		return err
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		return err
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	sel, err := selector.Select(res, coster, selector.Options{Method: selector.MethodExact})
	if err != nil {
		return err
	}
	plan, err := physical.Compile(an, db, physical.Options{Res: res, Observe: sel.Observe})
	if err != nil {
		return err
	}
	fmt.Printf("workflow %s — compiled physical plan (%d block(s), %d tap(s))\n\n",
		g.Name, len(plan.Blocks), plan.NumTaps())
	fmt.Print(plan.String())
	if metricsFmt != "" {
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		cfg.MaxRows = maxRows
		cfg.CollectMetrics = true
		cfg.Faults = inj
		cfg.StatsTier = tier
		cy, err := core.RunCtx(ctx, g, cat, db, cfg)
		if err != nil {
			return err
		}
		fmt.Println("\nmetrics (one instrumented run):")
		if err := cy.WriteMetrics(os.Stdout, metricsFmt); err != nil {
			return err
		}
		cy.WriteMetricsTimings(os.Stderr)
	}
	if !derive {
		return nil
	}
	fmt.Println()
	return runCycle(ctx, file, wfID, dataDir, scale, true, workers, maxRows, "", inj, "", tier, nil, nil)
}

// reportCmd runs one cycle over a suite workflow and writes the markdown
// report to stdout.
func reportCmd(ctx context.Context, wfID int, scale float64, inj *faults.Injector) error {
	w, err := suite.Get(wfID)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Faults = inj
	cy, err := core.RunCtx(ctx, w.Graph, w.Catalog, w.Data(scale), cfg)
	if err != nil {
		return err
	}
	return cy.Report(os.Stdout)
}

// scheduleCmd builds and executes a Section 6.1 multi-run observation
// schedule under a per-run memory budget, then derives every SE cardinality
// from the merged observations.
func scheduleCmd(ctx context.Context, wfID int, scale float64, budget int64, workers int, maxRows int64, inj *faults.Injector) error {
	w, err := suite.Get(wfID)
	if err != nil {
		return err
	}
	if budget <= 0 {
		return fmt.Errorf("schedule needs -budget <units>")
	}
	an, err := workflow.Analyze(w.Graph, w.Catalog)
	if err != nil {
		return err
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		return err
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	u, err := selector.NewUniverse(res, coster)
	if err != nil {
		return err
	}
	plan, err := schedule.Build(u, budget)
	if err != nil {
		return err
	}
	fmt.Printf("budget %d units → %d scheduled run(s)\n", budget, len(plan.Runs))
	for r, run := range plan.Runs {
		fmt.Printf("run %d:\n", r+1)
		for bi, tree := range run.Trees {
			fmt.Printf("  block %d re-ordered: %s\n", bi, tree.Render(an.Blocks[bi]))
		}
		for _, st := range run.Observe {
			fmt.Printf("  observe %s\n", st.Label(an.Blocks[st.Target.Block]))
		}
	}
	db := w.Data(scale)
	eng := engine.New(an, db, nil)
	eng.Workers = workers
	eng.MaxRows = maxRows
	eng.Faults = inj
	store, err := schedule.ExecuteCtx(ctx, eng, res, plan)
	if err != nil {
		return err
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
func genData(wfID int, scale float64, outDir string) error {
	w, err := suite.Get(wfID)
	if err != nil {
		return err
	}
	if outDir == "" {
		return fmt.Errorf("gendata needs -out <dir>")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	db := w.Data(scale)
	for rel, tbl := range db {
		f, err := os.Create(filepath.Join(outDir, rel+".csv"))
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
	fmt.Printf("wrote %d relations to %s\n", len(db), outDir)
	return nil
}

func withDoc(file string, wfID int, f func(*workflow.Document) error) error {
	doc, err := loadDoc(file, wfID)
	if err != nil {
		return err
	}
	return f(doc)
}

func loadDoc(file string, wfID int) (*workflow.Document, error) {
	switch {
	case file != "":
		fh, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		return workflow.Decode(fh)
	case wfID != 0:
		w, err := suite.Get(wfID)
		if err != nil {
			return nil, err
		}
		return &workflow.Document{Workflow: w.Graph, Catalog: w.Catalog}, nil
	default:
		return nil, fmt.Errorf("need -f <file> or -wf <1..30>")
	}
}

func listSuite() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "id\tname\tnote")
	for _, wf := range suite.All() {
		fmt.Fprintf(w, "%d\t%s\t%s\n", wf.ID, wf.Name, wf.Note)
	}
	return w.Flush()
}

func export(wfID int) error {
	w, err := suite.Get(wfID)
	if err != nil {
		return err
	}
	doc := &workflow.Document{Workflow: w.Graph, Catalog: w.Catalog}
	return doc.Encode(os.Stdout)
}

func analyze(doc *workflow.Document) error {
	an, err := workflow.Analyze(doc.Workflow, doc.Catalog)
	if err != nil {
		return err
	}
	res, err := css.Generate(an, css.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("workflow %q: %d nodes, %d optimizable block(s)\n\n",
		doc.Workflow.Name, len(doc.Workflow.Nodes), len(an.Blocks))
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

func statsCmd(doc *workflow.Document, method string, ud bool) error {
	an, err := workflow.Analyze(doc.Workflow, doc.Catalog)
	if err != nil {
		return err
	}
	opt := css.DefaultOptions()
	opt.UnionDivision = ud
	res, err := css.Generate(an, opt)
	if err != nil {
		return err
	}
	var m selector.Method
	switch method {
	case "exact":
		m = selector.MethodExact
	case "greedy":
		m = selector.MethodGreedy
	case "lp":
		m = selector.MethodLP
	default:
		return fmt.Errorf("unknown method %q", method)
	}
	coster := costmodel.NewMemoryCoster(res, an.Cat)
	sel, err := selector.Select(res, coster, selector.Options{Method: m})
	if err != nil {
		return err
	}
	fmt.Printf("method=%s optimal=%v cost=%.0f memory=%d units\n\n", sel.Method, sel.Optimal, sel.Cost, sel.Memory)
	fmt.Println("observe:")
	for _, s := range sel.Observe {
		blk := an.Blocks[s.Target.Block]
		extra := ""
		if res.RejectLinked(s) {
			extra = "   [requires added reject link]"
		}
		fmt.Printf("  block %d: %s%s\n", s.Target.Block, s.Label(blk), extra)
	}
	return nil
}

func baseline(doc *workflow.Document) error {
	an, err := workflow.Analyze(doc.Workflow, doc.Catalog)
	if err != nil {
		return err
	}
	res, err := css.Generate(an, css.DefaultOptions())
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
