package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/essential-stats/etlopt/internal/core"
	"github.com/essential-stats/etlopt/internal/css"
	"github.com/essential-stats/etlopt/internal/data"
	"github.com/essential-stats/etlopt/internal/engine"
	"github.com/essential-stats/etlopt/internal/optimizer"
	"github.com/essential-stats/etlopt/internal/selector"
	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

// tinyWorkflow builds a small three-way join whose designed order is
// deliberately bad (the selective Region join comes last), so optimization
// has something to improve and the daemon's responses carry real content.
func tinyWorkflow(t *testing.T, seed int64, card int64) (*Document, engine.DB) {
	t.Helper()
	specs := []data.TableSpec{
		{Rel: "Orders", Card: card, Columns: []data.ColumnSpec{
			{Name: "oid", Serial: true},
			{Name: "lid", Domain: 20, Skew: 1.5},
			{Name: "rid", Domain: 15, Skew: 1.3},
		}},
		{Rel: "Log", Card: card * 2 / 3, Columns: []data.ColumnSpec{
			{Name: "lid", Domain: 20, Skew: 1.5},
		}},
		{Rel: "Region", Card: 8, Columns: []data.ColumnSpec{
			{Name: "rid", Domain: 15},
		}},
	}
	db := engine.DB{}
	cat := &workflow.Catalog{}
	for i, s := range specs {
		tbl := data.Generate(s, seed+int64(i))
		db[s.Rel] = tbl
		cat.Relations = append(cat.Relations, data.CatalogEntry(tbl, s))
	}
	b := workflow.NewBuilder("tiny")
	o := b.Source("Orders")
	l := b.Source("Log")
	r := b.Source("Region")
	j1 := b.Join(o, l, workflow.Attr{Rel: "Orders", Col: "lid"}, workflow.Attr{Rel: "Log", Col: "lid"})
	j2 := b.Join(j1, r, workflow.Attr{Rel: "Orders", Col: "rid"}, workflow.Attr{Rel: "Region", Col: "rid"})
	b.Sink(j2, "dw")
	return &Document{Graph: b.Graph(), Catalog: cat}, db
}

// observedStream runs one instrumented cycle and returns the saved
// statistics stream — exactly what `etlopt run -save-stats` uploads.
func observedStream(t *testing.T, doc *Document, db engine.DB) []byte {
	t.Helper()
	cy, err := core.Run(doc.Graph, doc.Catalog, db, core.DefaultConfig())
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	var buf bytes.Buffer
	if err := cy.SaveStats(&buf); err != nil {
		t.Fatalf("SaveStats: %v", err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, doc *Document, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	cat, err := OpenCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cat, map[string]*Document{"tiny": doc}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServeObserveOptimizeRoundTrip(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	srv, ts := newTestServer(t, doc, Options{})
	stream := observedStream(t, doc, db)

	// Upload: first generation always flags re-optimization.
	resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", stream)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	var obs observeResponse
	if err := json.Unmarshal(body, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Generation != 1 || obs.Count == 0 || !obs.Reoptimize {
		t.Fatalf("observe response %+v", obs)
	}

	// Optimize: must match a fresh process optimizing the same stream.
	req := []byte(`{"workflow":"tiny"}`)
	resp, body = post(t, ts.URL+"/v1/optimize", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first optimize X-Cache = %q", h)
	}
	var opt optimizeResponse
	if err := json.Unmarshal(body, &opt); err != nil {
		t.Fatal(err)
	}
	fresh := freshOptimize(t, doc, stream)
	if opt.TotalCost != fresh.TotalCost || opt.TotalInitialCost != fresh.TotalInitialCost {
		t.Fatalf("daemon costs (%v, %v) != fresh (%v, %v)",
			opt.TotalCost, opt.TotalInitialCost, fresh.TotalCost, fresh.TotalInitialCost)
	}
	for _, pj := range opt.Blocks {
		blk := srvBlock(t, srv, pj.Block)
		want := fresh.Plans[pj.Block].Tree.Render(blk)
		if pj.Optimized != want {
			t.Fatalf("block %d plan %q != fresh %q", pj.Block, pj.Optimized, want)
		}
	}
	if opt.Improvement < 1 {
		t.Fatalf("improvement %v < 1", opt.Improvement)
	}

	// Second identical request: cache hit, byte-identical body.
	resp, body2 := post(t, ts.URL+"/v1/optimize", "application/json", req)
	if h := resp.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("second optimize X-Cache = %q", h)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cache hit body differs from the solved body")
	}

	// Estimate: selection plus full coverage and derived cardinalities.
	resp, body = post(t, ts.URL+"/v1/estimate", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d %s", resp.StatusCode, body)
	}
	var est estimateResponse
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatal(err)
	}
	if len(est.Selection.Observe) == 0 || est.Generation != 1 {
		t.Fatalf("estimate response %+v", est)
	}
	if est.Coverage == nil || est.Coverage.Derivable != est.Coverage.Total || len(est.Cardinalities) != est.Coverage.Total {
		t.Fatalf("coverage %+v with %d cardinalities", est.Coverage, len(est.Cardinalities))
	}

	// Un-drifted upload: generation advances, cached solutions stand.
	resp, body = post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", stream)
	if err := json.Unmarshal(body, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Generation != 2 || obs.Reoptimize || obs.Invalidated != 0 || obs.Drift.MaxRel != 0 {
		t.Fatalf("identical re-upload: %+v", obs)
	}
	if obs.QErrorMax > 1 {
		t.Fatalf("identical re-upload reports q-error %v", obs.QErrorMax)
	}
	resp, body2 = post(t, ts.URL+"/v1/optimize", "application/json", req)
	if h := resp.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("optimize after un-drifted upload X-Cache = %q (cache was invalidated?)", h)
	}

	// Drifted upload (different data): invalidates and re-selects.
	_, db2 := tinyWorkflow(t, 977, 1800)
	stream2 := observedStream(t, doc, db2)
	resp, body = post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", stream2)
	if err := json.Unmarshal(body, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.Generation != 3 || !obs.Reoptimize || obs.Invalidated == 0 {
		t.Fatalf("drifted upload: %+v", obs)
	}
	if obs.Drift.MaxRel <= srv.opts.DriftThreshold {
		t.Fatalf("test data did not drift past the threshold: %+v", obs.Drift)
	}
	if obs.QErrorMax <= 1 {
		t.Fatalf("drifted upload should surface estimate error, q = %v", obs.QErrorMax)
	}
	resp, body = post(t, ts.URL+"/v1/optimize", "application/json", req)
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("optimize after drifted upload X-Cache = %q", h)
	}
	if err := json.Unmarshal(body, &opt); err != nil {
		t.Fatal(err)
	}
	if opt.Generation != 3 {
		t.Fatalf("re-solved against generation %d, want 3", opt.Generation)
	}
	fresh2 := freshOptimize(t, doc, stream2)
	if opt.TotalCost != fresh2.TotalCost {
		t.Fatalf("post-drift cost %v != fresh %v", opt.TotalCost, fresh2.TotalCost)
	}

	// Health, metrics and the workflow listing.
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	_, body = get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"etlopt_serve_solves_total",
		"etlopt_serve_cache_hits_total",
		`etlopt_serve_catalog_generation{workflow="tiny"} 3`,
		`etlopt_serve_drift_max_rel{workflow="tiny"}`,
		`etlopt_serve_qerror_max{workflow="tiny"}`,
		"etlopt_serve_invalidations_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
	_, body = get(t, ts.URL+"/v1/workflows")
	var infos []workflowInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Workflow != "tiny" || !infos[0].HasStats || infos[0].Generation != 3 {
		t.Fatalf("workflows listing %+v", infos)
	}
}

// freshOptimize optimizes from a saved statistics stream the way a fresh
// process does: its own Plan over the document, nothing shared with the
// daemon.
func freshOptimize(t *testing.T, doc *Document, stream []byte) *optimizer.Result {
	t.Helper()
	store, err := stats.ReadStore(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	_, plans, err := core.NewPlan(doc.Graph, doc.Catalog, css.DefaultOptions()).Optimize(store, core.DefaultConfig())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return plans
}

// srvBlock fetches a block from the server's built analysis for rendering
// comparisons.
func srvBlock(t *testing.T, srv *Server, bi int) *workflow.Block {
	t.Helper()
	an, err := srv.plans["tiny"].Analysis()
	if err != nil {
		t.Fatal(err)
	}
	return an.Blocks[bi]
}

func TestServeErrorPaths(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	_, ts := newTestServer(t, doc, Options{})

	// Unknown workflow.
	resp, body := post(t, ts.URL+"/v1/optimize", "application/json", []byte(`{"workflow":"nope"}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workflow: %d %s", resp.StatusCode, body)
	}
	resp, _ = post(t, ts.URL+"/v1/observe?workflow=nope", "application/octet-stream", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("observe unknown workflow: %d", resp.StatusCode)
	}

	// Optimize before any statistics exist.
	resp, body = post(t, ts.URL+"/v1/optimize", "application/json", []byte(`{"workflow":"tiny"}`))
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "/v1/observe") {
		t.Fatalf("optimize without statistics: %d %s", resp.StatusCode, body)
	}

	// Corrupt upload: rejected with the byte offset, nothing persisted.
	stream := observedStream(t, doc, db)
	resp, body = post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", stream[:len(stream)-3])
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "at byte") {
		t.Fatalf("truncated upload: %d %s", resp.StatusCode, body)
	}
	resp, _ = post(t, ts.URL+"/v1/optimize", "application/json", []byte(`{"workflow":"tiny"}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupt upload persisted something: optimize returned %d", resp.StatusCode)
	}

	// Bad request bodies.
	resp, _ = post(t, ts.URL+"/v1/optimize", "application/json", []byte(`{"workflow":"tiny","costModel":"quantum"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cost model: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/estimate", "application/json", []byte(`{"workflow":"tiny","method":"oracle"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad method: %d", resp.StatusCode)
	}
	resp, body = post(t, ts.URL+"/v1/estimate", "application/json", []byte(`{"workflow":"tiny","method":"lp"}`))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `method \"lp\"`) {
		t.Fatalf("method lp: %d %s", resp.StatusCode, body)
	}
	resp, _ = post(t, ts.URL+"/v1/estimate", "application/json", []byte(`{"workflow":"tiny","bogus":1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}
	oversized := []byte(`{"workflow":"` + strings.Repeat("x", 1<<20) + `"}`)
	resp, _ = post(t, ts.URL+"/v1/optimize", "application/json", oversized)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/optimize")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET optimize: %d", resp.StatusCode)
	}
}

func TestServePartialStoreConflict(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	_, ts := newTestServer(t, doc, Options{})
	stream := observedStream(t, doc, db)

	// Strip every histogram: join cardinalities lose their derivations.
	full, err := stats.ReadStore(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	partial := stats.NewStore()
	for _, v := range full.Values() {
		if v.Hist != nil {
			continue
		}
		if err := partial.Put(v); err != nil {
			t.Fatal(err)
		}
	}
	var pbuf bytes.Buffer
	if _, err := partial.WriteTo(&pbuf); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", pbuf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial upload: %d %s", resp.StatusCode, body)
	}

	// Default: conflict naming the missing statistics.
	resp, body = post(t, ts.URL+"/v1/optimize", "application/json", []byte(`{"workflow":"tiny"}`))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("partial store optimize: %d %s", resp.StatusCode, body)
	}
	var conflict struct {
		Error   string   `json:"error"`
		Missing []string `json:"missing"`
		Blocks  []int    `json:"blocks"`
	}
	if err := json.Unmarshal(body, &conflict); err != nil {
		t.Fatal(err)
	}
	if len(conflict.Missing) == 0 || len(conflict.Blocks) == 0 || !strings.Contains(conflict.Error, "AllowPartialStats") {
		t.Fatalf("conflict body %s", body)
	}

	// allowPartial: plans come back with the affected blocks on fallback.
	resp, body = post(t, ts.URL+"/v1/optimize", "application/json", []byte(`{"workflow":"tiny","allowPartial":true}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("allowPartial optimize: %d %s", resp.StatusCode, body)
	}
	var opt optimizeResponse
	if err := json.Unmarshal(body, &opt); err != nil {
		t.Fatal(err)
	}
	if len(opt.Fallbacks) == 0 {
		t.Fatalf("allowPartial returned no fallbacks: %s", body)
	}
}

// TestServeObservePayloadMetrics: every upload reports its payload size,
// and /metrics tracks the per-workflow byte gauge.
func TestServeObservePayloadMetrics(t *testing.T) {
	doc, db := tinyWorkflow(t, 11, 600)
	_, ts := newTestServer(t, doc, Options{})
	exact := observedStream(t, doc, db)

	var obs observeResponse
	resp, body := post(t, ts.URL+"/v1/observe?workflow=tiny", "application/octet-stream", exact)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact upload: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.PayloadBytes != int64(len(exact)) {
		t.Fatalf("exact upload reports %d payload bytes, want %d", obs.PayloadBytes, len(exact))
	}

	_, mbody := get(t, ts.URL+"/metrics")
	if want := fmt.Sprintf(`etlopt_serve_observe_payload_bytes{workflow="tiny"} %d`, len(exact)); !strings.Contains(string(mbody), want) {
		t.Fatalf("metrics output missing %q:\n%s", want, mbody)
	}
}

func TestServeSuiteCatalogDefault(t *testing.T) {
	// nil workflows serves the built-in suite.
	cat, err := OpenCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cat, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body := get(t, ts.URL+"/v1/workflows")
	var infos []workflowInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 30 || infos[0].Workflow != "wf01" || infos[29].Workflow != "wf30" {
		t.Fatalf("suite listing has %d entries", len(infos))
	}
	for _, info := range infos {
		if info.Blocks == 0 {
			t.Fatalf("workflow %s reports no blocks", info.Workflow)
		}
		if info.HasStats {
			t.Fatalf("empty catalog claims statistics for %s", info.Workflow)
		}
	}
}

// TestEstimateMethodsShareOnePlan: an exact and a greedy /v1/estimate miss
// on one workflow both select through the workflow's one Plan, so they
// share its one CSS generation: after both, asking the Plan for either
// selection, or for the CSS result, runs nothing.
func TestEstimateMethodsShareOnePlan(t *testing.T) {
	doc, _ := tinyWorkflow(t, 11, 600)
	srv, ts := newTestServer(t, doc, Options{})
	p := srv.plans["tiny"]
	var gen time.Duration
	for i, method := range []string{"exact", "greedy"} {
		resp, body := post(t, ts.URL+"/v1/estimate", "application/json",
			[]byte(fmt.Sprintf(`{"workflow":"tiny","method":%q}`, method)))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("%s estimate: %d, X-Cache %q: %s", method, resp.StatusCode, resp.Header.Get("X-Cache"), body)
		}
		tm := p.Timings(selector.MethodExact)
		if i == 0 {
			gen = tm.GenerateCSS
		}
		if gen <= 0 || tm.GenerateCSS != gen {
			t.Fatalf("after the %s miss the CSS generation took %v, after the first %v", method, tm.GenerateCSS, gen)
		}
	}
	for _, m := range []selector.Method{selector.MethodExact, selector.MethodGreedy} {
		before := p.Timings(m)
		if _, err := p.Selection(m); err != nil {
			t.Fatal(err)
		}
		if after := p.Timings(m); after != before || before.Select <= 0 {
			t.Fatalf("method %v: the daemon's solve did not go through the workflow's Plan (times %+v, then %+v)", m, before, after)
		}
	}
}
