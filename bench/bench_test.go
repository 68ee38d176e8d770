package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFloorArithmetic(t *testing.T) {
	ops := [][]float64{{3, 1, 2}, {10, 30, 20}}
	if got := floorSum(ops); got != 11 {
		t.Errorf("floorSum = %v, want 11 (1 + 10)", got)
	}
	if got := floorMean(ops); got != 5.5 {
		t.Errorf("floorMean = %v, want 5.5", got)
	}
	// Three samples keep their fastest three: (1+2+3)/3 + (10+20+30)/3.
	if got := steadySum(ops); got != 22 {
		t.Errorf("steadySum = %v, want 22 (2 + 20)", got)
	}
	// Of eight samples the slowest two are dropped, whatever their size.
	if got := steady([]float64{900, 1, 2, 3, 4, 5, 6, 800}); got != 3.5 {
		t.Errorf("steady = %v, want 3.5: the mean of the fastest six of eight", got)
	}
	if got := steady([]float64{7}); got != 7 {
		t.Errorf("steady of one sample = %v, want the sample", got)
	}
	if got := minOf(nil); !math.IsNaN(got) {
		t.Errorf("minOf(nil) = %v, want NaN so an unmeasured op poisons its metric", got)
	}
	if got := floorSum([][]float64{{1}, nil}); !math.IsNaN(got) {
		t.Errorf("floorSum with an empty op = %v, want NaN", got)
	}
	if got := floorMean(nil); !math.IsNaN(got) {
		t.Errorf("floorMean(nil) = %v, want NaN", got)
	}
	if got := steadySum([][]float64{{1}, nil}); !math.IsNaN(got) {
		t.Errorf("steadySum with an empty op = %v, want NaN", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile([]float64{7, 9, 8}, 50); got != 8 {
		t.Errorf("median of three set-ups = %v, want the middle one", got)
	}
	// Round i of a phase is the sum of every op's i-th sample.
	if got := roundPercentile([][]float64{{1, 2, 3}, {10, 20, 30}}, 50); got != 22 {
		t.Errorf("roundPercentile = %v, want 22", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "bench.cycle", Op: "wf/cycle", Round: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "css.Generate", Op: "wf/cycle", Round: 0, Parent: 0, Start: ms(10), End: ms(50)},
		{Name: "client.request", Op: "wf/cycle", Round: 0, Parent: 0, Start: ms(50), End: ms(90)},
		{Name: "serve.handler", Op: "wf/cycle", Round: 0, Parent: 2, Start: ms(55), End: ms(85)},
		{Name: "css.Generate", Op: "wf/cycle", Round: 1, Parent: -1, Start: ms(200), End: ms(230)},
		{Name: "css.Generate", Op: "wf/cycle", Round: -1, Parent: -1, Start: ms(300), End: ms(900)}, // warm-up
		{Name: "css.Generate", Op: "wf/cycle", Round: 2, Parent: -1, Start: ms(950), End: -1},       // never ended
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{ms(20), ms(40), ms(10), ms(30), ms(30)} {
		if self[i] != want {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], want)
		}
	}
	ls := layerSamples(spans)
	got := ls[layerKey{"wf/cycle", "css.Generate"}]
	if len(got) != 2 || got[0] != 0.04 || got[1] != 0.03 {
		t.Errorf("css.Generate samples = %v, want [0.04 0.03] (warm-up and open spans dropped)", got)
	}
	if got := ls[layerKey{"wf/cycle", "client.request"}]; len(got) != 1 || math.Abs(got[0]-0.01) > 1e-12 {
		t.Errorf("client self time = %v, want [0.01]: the request minus its handler", got)
	}
	// Overlapping children (two clients) clamp at zero instead of going negative.
	over := []span{
		{Parent: -1, Start: 0, End: ms(10)},
		{Parent: 0, Start: 0, End: ms(8)},
		{Parent: 0, Start: ms(1), End: ms(9)},
	}
	if got := selfTimes(over)[0]; got != 0 {
		t.Errorf("self time under overlapping children = %v, want 0", got)
	}
}

func TestTracerNil(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "op", 0, -1, laneBench)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestSpecs(t *testing.T) {
	want := []string{"dist-run", "exec-heavy", "plan-heavy", "serve-churn"}
	got := workloadNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("workloads = %v, want %v", got, want)
	}
	for _, name := range got {
		sp, err := loadSpec(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if sp.MaxRows != 4_000_000 {
			t.Errorf("%s: max_rows = %d, every execution runs with 4e6", name, sp.MaxRows)
		}
		for _, ex := range sp.Excluded {
			if ex.Workflow == "" || ex.Reason == "" {
				t.Errorf("%s: exclusion %+v lacks a workflow or a reason", name, ex)
			}
		}
	}
	if _, err := loadSpec("nope"); err == nil {
		t.Error("unknown workload loaded")
	}
}

func TestParseSpecRejects(t *testing.T) {
	raw, err := specFS.ReadFile("workloads/plan-heavy.json")
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out, _ := json.Marshal(m)
		return out
	}
	for name, bad := range map[string][]byte{
		"too few rounds":  edit(func(m map[string]any) { m["rounds"] = 19 }),
		"no max_rows":     edit(func(m map[string]any) { delete(m, "max_rows") }),
		"no why":          edit(func(m map[string]any) { m["why"] = "" }),
		"empty dist list": edit(func(m map[string]any) { m["dist"] = []any{} }),
		"unknown field":   edit(func(m map[string]any) { m["duration"] = "30s" }),
		"bad workflow":    edit(func(m map[string]any) { m["cycle"] = []any{map[string]any{"wf": 31, "scale": 0.1}} }),
		"listed twice": edit(func(m map[string]any) {
			m["stream"] = []any{map[string]any{"wf": 9, "scale": 0.002}, map[string]any{"wf": 9, "scale": 0.002}}
		}),
		"no exclusions": edit(func(m map[string]any) { m["excluded"] = []any{} }),
		"one served":    edit(func(m map[string]any) { m["serve"] = []any{9} }),
	} {
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := parseSpec(raw); err != nil {
		t.Errorf("unedited spec: %v", err)
	}
}

func TestJitter(t *testing.T) {
	seen := map[float64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		j := jitter(seed)
		if j < 0.995 || j > 1.005 {
			t.Errorf("jitter(%d) = %v, outside ±0.5 %%", seed, j)
		}
		if j != jitter(seed) {
			t.Errorf("jitter(%d) is not a function of the seed", seed)
		}
		seen[j] = true
	}
	if len(seen) < 45 {
		t.Errorf("50 seeds gave %d distinct scales", len(seen))
	}
}

func TestReport(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	got, err := report(defs, map[string]float64{"a": 1, "b": 2, "extra": 3})
	if err != nil || len(got) != 2 || got["b"] != (metricValue{2, "ms"}) {
		t.Errorf("report = %v, %v", got, err)
	}
	if _, err := report(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was reported")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("a NaN metric was reported")
	}
}

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric tables
// and workload specs saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloadNames()) {
		t.Errorf("%d workloads in BENCHMARK.json, %d specs", len(bf.Workloads), len(workloadNames()))
	}
	for _, w := range bf.Workloads {
		sp, err := loadSpec(w.Name)
		if err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
			continue
		}
		if w.Why != sp.Why {
			t.Errorf("workload %s: why differs from its spec", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		// setup_s is the one metric the contract does not let us demote.
		limit := 0.15
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v; a metric that cannot hold %v is demoted, not loosened", m.Name, m.Bound, limit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("%s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload end to end with two timed rounds, and one
// traced run: the benchmark's checks stay green against the repository as it is.
func TestSmoke(t *testing.T) {
	o := options{budget: time.Minute, rounds: 2, setups: 1, warmups: 1, outDir: t.TempDir(), log: io.Discard}
	if testing.Verbose() {
		o.log = os.Stderr
	}
	check := func(res *result, err error, defs []metricDef) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("metric %s: %+v", d.name, m)
			}
		}
	}
	for _, name := range workloadNames() {
		o.workload, o.seed = name, 7
		res, err := run(o)
		check(res, err, endToEnd)
		for _, d := range endToEnd {
			if res != nil && res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", name, d.name, res.Metrics[d.name].Value)
			}
		}
	}
	o.workload, o.trace = "dist-run", true // half the rounds: one timed round
	res, err := run(o)
	check(res, err, perLayer)
	if _, err := os.Stat(filepath.Join(o.outDir, "dist-run.trace.json")); err != nil {
		t.Errorf("trace file: %v", err)
	}
	if ents, _ := os.ReadDir(o.outDir); len(ents) != 1 {
		t.Errorf("%d entries left in the output directory, want only the trace file", len(ents))
	}
}
