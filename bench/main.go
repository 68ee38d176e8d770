// Command bench is the repository's benchmark: one process, pinned to two
// cores, that runs one workload's ops in fixed rounds, checks every output,
// and prints every metric by name with its unit. See README.md.
//
//	bash bench/run.sh --workload plan-heavy --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (bench/workloads/<name>.json)")
	flag.Int64Var(&o.seed, "seed", 0, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 30, "time budget of the timed rounds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for the trace file and scratch catalogs")
	flag.Parse()
	if flag.NArg() > 0 || seconds <= 0 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.budget = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.log = os.Stderr

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload: the set-ups (the last one is measured), the
// timed rounds, and the reduction to metrics.
func run(o options) (*result, error) {
	// Two cores: the 2-client phase, the two workers and the streaming
	// engine's two workers all fit, and the probes were taken this way.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sp, err := loadSpec(o.workload)
	if err != nil {
		return nil, err
	}
	if o.setups == 0 {
		o.setups = defaultSetups
	}
	if o.warmups == 0 {
		o.warmups = defaultWarmups
	}
	rounds := sp.Rounds
	if o.rounds > 0 {
		rounds = o.rounds
	}
	if o.trace {
		// The traced rounds carry half again as many ops; half as many of them.
		rounds = (rounds + 1) / 2
	}
	tl := &tally{log: o.log}
	start := time.Now()

	var e *env
	var setupSeconds []float64
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.close()
		}
		var tr *tracer
		if o.trace && i == o.setups-1 {
			tr = newTracer()
		}
		t0 := time.Now()
		if e, err = setup(sp, o, tl, tr); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupSeconds = append(setupSeconds, time.Since(t0).Seconds())
	}
	defer e.close()

	var before map[string]float64
	if o.trace {
		if before, err = e.scrape(); err != nil {
			return nil, err
		}
	}
	// No runtime.GC() between samples: it empties the engine's sync.Pool
	// arenas and made the observed run's p50 bimodal (88–166 ms).
	deadline := time.Now().Add(o.budget)
	done := 0
	for ; done < rounds; done++ {
		if done >= minTimedRounds && time.Now().After(deadline) {
			fmt.Fprintf(o.log, "budget of %v spent after %d of %d rounds\n", o.budget, done, rounds)
			break
		}
		e.round(done)
	}

	res := &result{Attempted: tl.attempted, Failed: tl.failed, Correct: tl.failed == 0}
	var values map[string]float64
	defs := endToEnd
	if o.trace {
		after, err := e.scrape()
		if err != nil {
			return nil, err
		}
		values, defs = e.layerValues(done, before, after), perLayer
		path := filepath.Join(o.outDir, sp.Name+".trace.json")
		if err := e.tr.writeChrome(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(o.log, "trace: %s (%d spans)\n", path, len(e.tr.spans))
	} else {
		values = e.endToEndValues(setupSeconds)
	}
	if res.Correct {
		// A failed run has holes in its samples; its counts are the result.
		if res.Metrics, err = report(defs, values); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = map[string]metricValue{}
	}
	e.summary(o.log, defs, values, setupSeconds, done, time.Since(start))
	return res, nil
}

// summary prints every metric by name with its unit, plus the reference
// kernel and the heap, for a person reading the run.
func (e *env) summary(w io.Writer, defs []metricDef, values map[string]float64, setups []float64, rounds int, wall time.Duration) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fmt.Fprintf(w, "workload %s seed %d: %d timed rounds, %d ops/round, wall %.1fs, set-ups %.2fs, heap_sys %d MB, gc %d\n",
		e.sp.Name, e.o.seed, rounds, len(e.ops), wall.Seconds(), setups, m.HeapSys>>20, m.NumGC)
	fmt.Fprintf(w, "reference kernel: min %.3f ms, p50 %.3f ms over %d runs (drift detector, never a denominator)\n",
		minOf(e.ref.samples)*1e3, percentile(e.ref.samples, 50)*1e3, len(e.ref.samples))
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	if e.tr != nil {
		return
	}
	groups := map[string]bool{}
	for _, o := range e.ops {
		groups[o.group] = true
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		ops := e.group(g)
		fmt.Fprintf(w, "  %-14s steady %10.6f s  floor %10.6f s  p50 %10.6f s  p90 %10.6f s  (ungated, %d ops)\n",
			g, steadySum(ops), floorSum(ops), roundPercentile(ops, 50), roundPercentile(ops, 90), len(ops))
	}
}
