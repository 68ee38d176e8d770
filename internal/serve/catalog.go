package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"github.com/essential-stats/etlopt/internal/stats"
)

// This file implements the daemon's statistics catalog: the on-disk,
// versioned home of the paper's design-once/execute-repeatedly loop. Each
// workflow owns a directory of immutable generations — every /v1/observe
// upload appends gen-NNNNNN.stats (the canonical ETLSTAT stream) and
// rewrites meta.json to point at it — so the statistics that justified any
// past plan remain inspectable, and drift between consecutive runs is
// measured at upload time, exactly when the loop must decide whether to
// re-optimize.
//
// Layout:
//
//	<dir>/<workflow>/gen-000001.stats   canonical statistics stream
//	<dir>/<workflow>/gen-000002.stats
//	<dir>/<workflow>/meta.json          metadata of the latest generation
//
// Writes are atomic (temp file + rename in the same directory), so a
// crashed upload can never leave a half-written generation as current:
// meta.json only ever names fully written streams.

// Meta describes the latest generation of one workflow's statistics.
type Meta struct {
	Workflow    string `json:"workflow"`
	Generation  int    `json:"generation"`
	Count       int    `json:"count"`
	MemoryUnits int64  `json:"memoryUnits"`
	// DriftMaxRel and DriftMeanRel record the drift of this generation
	// relative to the previous one (zero for the first generation).
	DriftMaxRel  float64 `json:"driftMaxRel"`
	DriftMeanRel float64 `json:"driftMeanRel"`
}

// Entry is a catalog entry held in memory: the latest generation's metadata
// plus its loaded store.
type Entry struct {
	Meta
	Store *stats.Store
}

// Catalog is the daemon's statistics catalog over one directory.
type Catalog struct {
	dir string

	mu      sync.RWMutex
	entries map[string]*Entry
}

// workflowName restricts catalog keys to path-safe names: uploads choose
// the directory a generation lands in, so anything resembling traversal is
// rejected before it touches the filesystem.
var workflowName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// OpenCatalog opens (creating if needed) a statistics catalog directory and
// loads the latest generation of every workflow found in it.
func OpenCatalog(dir string) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open catalog: %w", err)
	}
	c := &Catalog{dir: dir, entries: make(map[string]*Entry)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: open catalog: %w", err)
	}
	for _, de := range des {
		if !de.IsDir() || !workflowName.MatchString(de.Name()) {
			continue
		}
		e, err := loadEntry(dir, de.Name())
		if err != nil {
			return nil, fmt.Errorf("serve: catalog entry %s: %w", de.Name(), err)
		}
		if e != nil {
			c.entries[de.Name()] = e
		}
	}
	return c, nil
}

// loadEntry loads one workflow's latest generation; nil when the directory
// holds no meta.json yet (an empty or foreign directory, not an error).
func loadEntry(dir, wf string) (*Entry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, wf, "meta.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("meta.json: %w", err)
	}
	if m.Workflow != wf || m.Generation < 1 {
		return nil, fmt.Errorf("meta.json names %q generation %d", m.Workflow, m.Generation)
	}
	f, err := os.Open(filepath.Join(dir, wf, genFile(m.Generation)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store, err := stats.ReadStore(f)
	if err != nil {
		return nil, err
	}
	return &Entry{Meta: m, Store: store}, nil
}

func genFile(gen int) string { return fmt.Sprintf("gen-%06d.stats", gen) }

// get returns the latest entry for a workflow.
func (c *Catalog) get(workflow string) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[workflow]
	return e, ok
}

// Workflows lists the catalog's workflow names, sorted.
func (c *Catalog) Workflows() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.entries))
	for wf := range c.entries {
		out = append(out, wf)
	}
	sort.Strings(out)
	return out
}

// Put persists a new generation of a workflow's statistics and returns the
// new entry plus the drift relative to the previous generation (zero drift,
// hadPrev false, for a first upload). The store must already be validated —
// the server reads uploads through the hardened stats.ReadStore before they
// reach the catalog.
func (c *Catalog) Put(workflow string, store *stats.Store) (*Entry, stats.Drift, bool, error) {
	e, prev, drift, err := c.put(workflow, store)
	return e, drift, prev != nil, err
}

// put is Put, and also returns the entry the new one replaced (nil for a
// first upload), read under the same lock as the generation it follows: two
// uploads racing for one workflow each get the entry they replaced.
func (c *Catalog) put(workflow string, store *stats.Store) (*Entry, *Entry, stats.Drift, error) {
	if !workflowName.MatchString(workflow) {
		return nil, nil, stats.Drift{}, fmt.Errorf("serve: invalid workflow name %q", workflow)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	var drift stats.Drift
	gen := 1
	prev := c.entries[workflow]
	if prev != nil {
		gen = prev.Generation + 1
		drift = stats.MeasureDrift(prev.Store, store)
	}
	e := &Entry{
		Meta: Meta{
			Workflow:     workflow,
			Generation:   gen,
			Count:        store.Len(),
			MemoryUnits:  store.MemoryUnits(),
			DriftMaxRel:  drift.MaxRel,
			DriftMeanRel: drift.MeanRel,
		},
		Store: store,
	}

	wfDir := filepath.Join(c.dir, workflow)
	if err := os.MkdirAll(wfDir, 0o755); err != nil {
		return nil, nil, stats.Drift{}, fmt.Errorf("serve: put %s: %w", workflow, err)
	}
	if err := atomicWrite(wfDir, genFile(gen), func(f *os.File) error {
		_, err := store.WriteTo(f)
		return err
	}); err != nil {
		return nil, nil, stats.Drift{}, fmt.Errorf("serve: put %s: %w", workflow, err)
	}
	meta, err := json.MarshalIndent(e.Meta, "", "  ")
	if err != nil {
		return nil, nil, stats.Drift{}, err
	}
	meta = append(meta, '\n')
	if err := atomicWrite(wfDir, "meta.json", func(f *os.File) error {
		_, err := f.Write(meta)
		return err
	}); err != nil {
		return nil, nil, stats.Drift{}, fmt.Errorf("serve: put %s: %w", workflow, err)
	}

	c.entries[workflow] = e
	return e, prev, drift, nil
}

// atomicWrite writes a file via a temp file in the same directory plus a
// rename, so readers never observe a partial write and a crash never
// corrupts the current generation.
func atomicWrite(dir, name string, fill func(*os.File) error) error {
	tmp, err := os.CreateTemp(dir, "."+name+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}
