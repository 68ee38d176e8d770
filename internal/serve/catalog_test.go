package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/essential-stats/etlopt/internal/stats"
	"github.com/essential-stats/etlopt/internal/workflow"
)

func scalarStore(t testing.TB, card int64) *stats.Store {
	t.Helper()
	st := stats.NewStore()
	target := stats.BlockSE(0, 1)
	if err := st.Put(&stats.Value{Stat: stats.NewCard(target), Scalar: card}); err != nil {
		t.Fatal(err)
	}
	h := stats.NewHistogram(workflow.Attr{Rel: "T", Col: "a"})
	for v := int64(1); v <= card/10+1; v++ {
		h.Inc([]int64{v}, 1)
	}
	if err := st.Put(&stats.Value{Stat: stats.Stat{Kind: stats.Hist, Target: target,
		Attrs: []workflow.Attr{{Rel: "T", Col: "a"}}}, Hist: h}); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCatalogPutGetReload(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	if _, ok := c.get("wfx"); ok {
		t.Fatal("empty catalog claims an entry")
	}

	e1, drift, hadPrev, err := c.Put("wfx", scalarStore(t, 100))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if hadPrev || drift.MaxRel != 0 || e1.Generation != 1 {
		t.Fatalf("first put: gen=%d hadPrev=%v drift=%+v", e1.Generation, hadPrev, drift)
	}
	e2, drift, hadPrev, err := c.Put("wfx", scalarStore(t, 200))
	if err != nil {
		t.Fatalf("second Put: %v", err)
	}
	if !hadPrev || e2.Generation != 2 || drift.MaxRel <= 0 {
		t.Fatalf("second put: gen=%d hadPrev=%v drift=%+v", e2.Generation, hadPrev, drift)
	}

	// Both generations are on disk; meta.json names the latest.
	for _, f := range []string{"gen-000001.stats", "gen-000002.stats", "meta.json"} {
		if _, err := os.Stat(filepath.Join(dir, "wfx", f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	// A fresh open loads the latest generation.
	c2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok := c2.get("wfx")
	if !ok || got.Generation != 2 || got.Count != e2.Count {
		t.Fatalf("reloaded entry = %+v, want generation 2 count %d", got, e2.Count)
	}
	if v, ok := got.Store.Get(stats.NewCard(stats.BlockSE(0, 1))); !ok || v.Scalar != 200 {
		t.Fatalf("reloaded store scalar = %+v, %v", v, ok)
	}
	if ws := c2.Workflows(); len(ws) != 1 || ws[0] != "wfx" {
		t.Fatalf("Workflows() = %v", ws)
	}
}

func TestCatalogRejectsUnsafeNames(t *testing.T) {
	c, err := OpenCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "../evil", "a/b", ".hidden", "x y", string(make([]byte, 80))} {
		if _, _, _, err := c.Put(name, scalarStore(t, 1)); err == nil {
			t.Fatalf("Put(%q) accepted an unsafe workflow name", name)
		}
	}
}

func TestCatalogIgnoresForeignDirs(t *testing.T) {
	dir := t.TempDir()
	// A directory without meta.json (crashed before the first successful
	// upload, or unrelated) must not fail the open.
	if err := os.MkdirAll(filepath.Join(dir, "stray"), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog with stray dir: %v", err)
	}
	if len(c.Workflows()) != 0 {
		t.Fatalf("stray dir surfaced as entry: %v", c.Workflows())
	}
}

// TestCatalogRefusesRetiredGeneration: a catalog written in an earlier store
// format does not open: the error names the workflow whose
// generation must be observed again, and the version refused.
func TestCatalogRefusesRetiredGeneration(t *testing.T) {
	dir := t.TempDir()
	v2, err := os.ReadFile("testdata/sketch_tier_upload.etlstat")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "wf03"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wf03", "meta.json"), []byte(`{"workflow":"wf03","generation":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wf03", "gen-000001.stats"), v2, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenCatalog(dir)
	if err == nil || !strings.Contains(err.Error(), "catalog entry wf03") || !strings.Contains(err.Error(), "version 2 stream") {
		t.Fatalf("a version-2 generation opened as %v, want a refusal naming wf03 and version 2", err)
	}
}
