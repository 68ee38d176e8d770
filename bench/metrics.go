package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metricDef is the part of a BENCHMARK.json entry the program reports; a
// test keeps names, units and order equal to the file, which alone holds the
// directions and the bounds.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics: the ones that repeat on this host. The
// phase times do not (README, "What repeats here") and are per-layer
// metrics. No ratio here has repo code as its denominator — such a ratio
// gets worse when the denominator gets faster.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"serve_hit_floor_us", "us"},
	{"work_ratio_x", "x"},
	{"obs_mem_units", "units"},
	{"dist_wire_mb", "MB"},
}

// perLayer are the traced run's metrics, ungated.
var perLayer = []metricDef{
	{"workflow.analyze_ms", "ms"},
	{"expr.enumerate_ms", "ms"},
	{"expr.se_count", "count"},
	{"css.generate_ms", "ms"},
	{"css.css_count", "count"},
	{"css.alloc_mb", "MB"},
	{"selector.universe_ms", "ms"},
	{"selector.exact_ms", "ms"},
	{"selector.greedy_ms", "ms"},
	{"selector.universe_size", "count"},
	{"physical.compile_ms", "ms"},
	{"physical.node_count", "count"},
	{"physical.tap_count", "count"},
	{"engine.batch_plain_ms", "ms"},
	{"engine.batch_tapped_ms", "ms"},
	{"engine.stream_tapped_ms", "ms"},
	{"engine.mrows_s", "Mrows/s"},
	{"engine.tap_overhead_x", "x"},
	{"engine.stream_slowdown_x", "x"},
	{"batch.join_ns_row", "ns"},
	{"batch.select_ns_row", "ns"},
	{"stats.write_ms", "ms"},
	{"stats.read_ms", "ms"},
	{"stats.store_bytes", "bytes"},
	{"stats.drift_ms", "ms"},
	{"estimate.new_ms", "ms"},
	{"estimate.required_ms", "ms"},
	{"estimate.qerror_max", "x"},
	{"optimizer.optimize_ms", "ms"},
	{"optimizer.blocks_changed", "count"},
	{"data.generate_ms", "ms"},
	{"data.wire_encode_ms", "ms"},
	{"data.wire_decode_ms", "ms"},
	{"data.wire_bytes_row", "bytes"},
	{"serve.optimize_miss_ms", "ms"},
	{"serve.estimate_miss_ms", "ms"},
	{"serve.reobserve_ms", "ms"},
	{"serve.handler_hit_us", "us"},
	{"serve.handler_optimize_miss_ms", "ms"},
	{"serve.handler_estimate_miss_ms", "ms"},
	{"serve.handler_observe_ms", "ms"},
	{"serve.http_overhead_us", "us"},
	{"serve.catalog_put_ms", "ms"},
	{"serve.observe_qerror_max", "x"},
	{"serve.cache_hit_share", "ratio"},
	{"serve.solves", "count"},
	{"serve.invalidations", "count"},
	{"serve.sheds", "count"},
	{"serve.worker_run_ms", "ms"},
	{"serve.coord_overhead_ms", "ms"},
	{"serve.dispatches", "count"},
	{"serve.reassigned", "count"},
	{"core.glue_ms", "ms"},
	{"core.alloc_mb_cycle", "MB"},
	{"core.allocs_cycle", "count"},
	{"harness.dist_overhead_x", "x"},
	{"harness.trace_coverage", "ratio"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.ref_ms_min", "ms"},
	{"harness.ref_ms_p50", "ms"},
	{"harness.peak_rss_mb", "MB"},
	{"harness.heap_sys_mb", "MB"},
	{"harness.gc_count", "count"},
	{"harness.rounds", "count"},
	{"cycle_s", "s"},
	{"cycle_floor_s", "s"},
	{"cycle_p50_s", "s"},
	{"cycle_p90_s", "s"},
	{"rerun_s", "s"},
	{"rerun_floor_s", "s"},
	{"rerun_p50_s", "s"},
	{"rerun_p90_s", "s"},
	{"stream_cycle_s", "s"},
	{"stream_cycle_floor_s", "s"},
	{"stream_cycle_p50_s", "s"},
	{"stream_cycle_p90_s", "s"},
	{"dist_cycle_s", "s"},
	{"dist_cycle_floor_s", "s"},
	{"dist_cycle_p50_s", "s"},
	{"dist_cycle_p90_s", "s"},
	{"serve_miss_s", "s"},
	{"serve_miss_floor_s", "s"},
	{"serve_miss_p50_s", "s"},
	{"serve_miss_p90_s", "s"},
	{"observe_s", "s"},
	{"observe_floor_s", "s"},
	{"observe_p50_s", "s"},
	{"observe_p90_s", "s"},
	{"serve_hit_p50_us", "us"},
	{"serve_mix_ops_s", "1/s"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report keeps exactly the defined metrics, with their units, and fails on
// a missing or non-finite one: a run that cannot measure a metric it
// promised is not a result.
func report(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// endToEndValues computes the gated metrics from the untraced rounds.
func (e *env) endToEndValues(setupSeconds []float64) map[string]float64 {
	v := map[string]float64{
		"setup_s": percentile(setupSeconds, 50),
		// Thousands of ~40 µs samples per workflow: some land in a quiet
		// moment of the host whatever the window, so the minimum repeats
		// (±2 % across processes where the median had ±10 %).
		"serve_hit_floor_us": floorMean(e.group("hit")) * 1e6,
	}
	var obs, opt, mem, wire int64
	for _, w := range e.sp.Cycle {
		st := e.wfs[w.key()]
		obs, opt, mem = obs+st.ref.rows, opt+st.ref.optRows, mem+st.ref.mem
	}
	for _, w := range e.sp.Dist {
		wire += e.wfs[w.key()].wire
	}
	// Exact metrics: every round was checked against the reference, so the
	// reference is the value of every round.
	v["work_ratio_x"] = float64(obs) / float64(opt)
	v["obs_mem_units"] = float64(mem)
	v["dist_wire_mb"] = float64(wire) / 1e6
	return v
}

// layerValues computes the traced run's metrics.
func (e *env) layerValues(rounds int, before, after map[string]float64) map[string]float64 {
	ls := layerSamples(e.tr.spans)
	// spanOps selects the per-round self times of one span name, one slice
	// per op whose key ends in suffix ("" = all).
	spanOps := func(name, suffix string) [][]float64 {
		var ops [][]float64
		for k, s := range ls {
			if k.name == name && strings.HasSuffix(k.op, suffix) {
				ops = append(ops, s)
			}
		}
		return ops
	}
	// lay is the floor of one span's self time, in seconds (NaN when no op
	// recorded the span).
	lay := func(name, suffix string) float64 {
		ops := spanOps(name, suffix)
		if len(ops) == 0 {
			return math.NaN()
		}
		return floorSum(ops)
	}
	ms := func(name, suffix string) float64 { return lay(name, suffix) * 1e3 }

	v := map[string]float64{
		"workflow.analyze_ms":     ms(spanAnalyze, ""),
		"css.generate_ms":         ms(spanGenerate, ""),
		"selector.universe_ms":    ms(spanUniverse, ""),
		"selector.exact_ms":       ms(spanExact, ""),
		"engine.batch_tapped_ms":  ms(spanTapped, ""),
		"estimate.new_ms":         ms(spanEstimator, ""),
		"optimizer.optimize_ms":   ms(spanOptimize, ""),
		"expr.enumerate_ms":       ms(spanEnumerate, ""),
		"selector.greedy_ms":      ms(spanGreedy, ""),
		"physical.compile_ms":     ms(spanCompile, ""),
		"engine.batch_plain_ms":   ms(spanPlain, ""),
		"engine.stream_tapped_ms": ms(spanStream, ""),
		"estimate.required_ms":    ms(spanRequired, ""),
		"stats.write_ms":          ms(spanWrite, ""),
		"stats.read_ms":           ms(spanRead, ""),
		"stats.drift_ms":          ms(spanDrift, ""),
		"data.wire_encode_ms":     ms(spanEncode, ""),
		"data.wire_decode_ms":     ms(spanDecode, ""),
		"batch.join_ns_row":       lay(spanJoin, "") * 1e9 / refRows,
		"batch.select_ns_row":     lay(spanSelect, "") * 1e9 / refRows,
		"serve.catalog_put_ms":    ms(spanPut, ""),
		"serve.worker_run_ms":     ms(spanWorker, ""),
		"serve.coord_overhead_ms": ms(spanRunBlock, ""),

		"serve.handler_optimize_miss_ms": ms(spanHandler, "/optimize_miss"),
		"serve.handler_estimate_miss_ms": ms(spanHandler, "/estimate_miss"),
		"serve.handler_observe_ms":       ms(spanHandler, "/observe"),
		"serve.optimize_miss_ms":         floorSum(e.group("optimize_miss")) * 1e3,
		"serve.estimate_miss_ms":         floorSum(e.group("estimate_miss")) * 1e3,
		"serve.reobserve_ms":             floorSum(e.group("reobserve")) * 1e3,
		"serve.observe_qerror_max":       e.sv.qerrMax,
		"data.generate_ms":               e.genSeconds * 1e3,
		"harness.rounds":                 float64(rounds),
	}
	// Per request: a round's handler time over the round's hit requests.
	perHit := 1e6 / float64(hitBatch*len(e.sv.wfs))
	v["serve.handler_hit_us"] = lay(spanHandler, "/hits") * perHit
	v["serve.http_overhead_us"] = lay(spanClient, "/hits") * perHit

	var rows int64
	var wireRows, wireBytes int64
	for _, w := range e.sp.Cycle {
		l := e.wfs[w.key()].lay
		rows += l.plainRows
		v["expr.se_count"] += float64(l.seCount)
		v["css.css_count"] += float64(l.cssCount)
		v["css.alloc_mb"] += l.cssAllocMB
		v["selector.universe_size"] += float64(l.universe)
		v["physical.node_count"] += float64(l.nodes)
		v["physical.tap_count"] += float64(l.taps)
		v["stats.store_bytes"] += float64(l.storeBytes)
		v["optimizer.blocks_changed"] += float64(l.changed)
		v["core.alloc_mb_cycle"] += l.cycleAllocMB
		v["core.allocs_cycle"] += l.cycleAllocs
		v["estimate.qerror_max"] = math.Max(v["estimate.qerror_max"], l.qerrMax)
	}
	for _, w := range e.sp.Dist {
		st := e.wfs[w.key()]
		wireRows, wireBytes = wireRows+st.wireRows, wireBytes+st.wireBytes
	}
	v["data.wire_bytes_row"] = float64(wireBytes) / float64(wireRows)
	v["engine.mrows_s"] = float64(rows) / lay(spanPlain, "") / 1e6
	v["engine.tap_overhead_x"] = lay(spanTapped, "") / lay(spanPlain, "")
	v["engine.stream_slowdown_x"] = lay(spanStream, "") / lay(spanTapped, "")

	// The step-wise cycle against the untraced core.Run of the same rounds,
	// on steady times: a sum of per-layer minima undershoots the minimum of
	// the sums by however much the layers' quiet moments fail to coincide.
	cycle := steadySum(e.group("cycle"))
	var layers float64
	for _, name := range cycleSpans {
		layers += steadySum(spanOps(name, ""))
	}
	v["core.glue_ms"] = (cycle - layers) * 1e3
	v["harness.trace_coverage"] = layers / cycle
	v["harness.trace_overhead_pct"] = 100 * (steadySum(e.group("stepwise")) - cycle) / cycle

	// The distributed cycle against the local one over the same workflows.
	v["harness.dist_overhead_x"] = floorSum(e.group("dist")) / floorSum(e.group("distlocal"))
	v["serve.dispatches"] = float64(e.dist.dispatches)
	v["serve.reassigned"] = float64(e.dist.reassigned)

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("etlopt_serve_cache_hits_total"), delta("etlopt_serve_cache_misses_total")
	v["serve.cache_hit_share"] = hits / (hits + misses)
	v["serve.solves"] = delta("etlopt_serve_solves_total")
	v["serve.invalidations"] = delta("etlopt_serve_invalidations_total")
	v["serve.sheds"] = delta("etlopt_serve_sheds_total")

	v["harness.ref_ms_min"] = minOf(e.ref.samples) * 1e3
	v["harness.ref_ms_p50"] = percentile(e.ref.samples, 50) * 1e3
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	v["harness.heap_sys_mb"] = float64(m.HeapSys) / (1 << 20)
	v["harness.gc_count"] = float64(m.NumGC)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		v["harness.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	for name, groups := range map[string][]string{
		"cycle": {"cycle"}, "rerun": {"rerun"}, "stream_cycle": {"stream"}, "dist_cycle": {"dist"},
		"serve_miss": {"optimize_miss", "estimate_miss"}, "observe": {"observe"},
	} {
		var ops [][]float64
		for _, g := range groups {
			ops = append(ops, e.group(g)...)
		}
		v[name+"_s"] = steadySum(ops)
		v[name+"_floor_s"] = floorSum(ops)
		v[name+"_p50_s"] = roundPercentile(ops, 50)
		v[name+"_p90_s"] = roundPercentile(ops, 90)
	}
	var hitSamples []float64
	for _, samples := range e.group("hit") {
		hitSamples = append(hitSamples, samples...)
	}
	v["serve_hit_p50_us"] = percentile(hitSamples, 50) * 1e6
	// The closed loop's steady round: requests over wall time.
	v["serve_mix_ops_s"] = 1 / steadySum(e.group("mix"))
	return v
}

// scrape reads the daemon's /metrics counters (unlabelled lines only).
func (e *env) scrape() (map[string]float64, error) {
	resp, err := e.sv.client.Get(e.sv.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 1<<20))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}
