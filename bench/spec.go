package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"strings"

	"github.com/essential-stats/etlopt/internal/suite"
)

//go:embed workloads/*.json
var specFS embed.FS

// minRounds is the fewest timed samples an op may have in a spec file: a
// floor over fewer was not probed.
const minRounds = 20

// wfScale pins one suite workflow's generated data.
type wfScale struct {
	WF    int     `json:"wf"`
	Scale float64 `json:"scale"`
}

func (w wfScale) key() string { return fmt.Sprintf("wf%02d@%g", w.WF, w.Scale) }

type exclusion struct {
	Workflow string `json:"workflow"`
	Reason   string `json:"reason"`
}

// spec is one workload: which workflows go through which phase, how many
// timed rounds, and why the workload exists. Every workload runs every
// phase, because every workload reports every end-to-end metric; the lists
// put the run's time where the workload's name says.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Rounds is the number of timed rounds (the traced run does half).
	Rounds  int   `json:"rounds"`
	MaxRows int64 `json:"max_rows"`
	// RerunReps is how many samples an optimized rerun takes per round:
	// where it runs in microseconds, one sample per round is too few.
	RerunReps int `json:"rerun_reps"`
	// Cycle workflows run core.Run on the batch engine and then
	// Cycle.RunOptimized; Stream ones run core.Run with Streaming and two
	// workers; Dist ones run core.Run through a coordinator over two
	// loopback workers. Serve workflows are served by the daemon, each with two
	// statistics streams (phase_serve.go).
	Cycle    []wfScale   `json:"cycle"`
	Stream   []wfScale   `json:"stream"`
	Dist     []wfScale   `json:"dist"`
	Serve    []int       `json:"serve"`
	Excluded []exclusion `json:"excluded"`
}

func workloadNames() []string {
	ents, err := specFS.ReadDir("workloads")
	if err != nil {
		panic(err) // the directory is embedded at build time
	}
	var names []string
	for _, e := range ents {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

func loadSpec(name string) (*spec, error) {
	raw, err := specFS.ReadFile(path.Join("workloads", name+".json"))
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	sp, err := parseSpec(raw)
	if err != nil {
		return nil, fmt.Errorf("workloads/%s.json: %w", name, err)
	}
	if sp.Name != name {
		return nil, fmt.Errorf("workloads/%s.json names workload %q", name, sp.Name)
	}
	return sp, nil
}

func parseSpec(raw []byte) (*spec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var sp spec
	if err := dec.Decode(&sp); err != nil {
		return nil, err
	}
	if sp.Name == "" || sp.Why == "" {
		return nil, fmt.Errorf("name and why are required")
	}
	if sp.Rounds < minRounds {
		return nil, fmt.Errorf("rounds = %d, want at least %d timed samples per op", sp.Rounds, minRounds)
	}
	if sp.RerunReps < 1 {
		return nil, fmt.Errorf("rerun_reps must be at least 1")
	}
	if sp.MaxRows <= 0 {
		return nil, fmt.Errorf("max_rows must be set: every execution runs under the intermediate-cardinality guard")
	}
	for phase, list := range map[string][]wfScale{"cycle": sp.Cycle, "stream": sp.Stream, "dist": sp.Dist} {
		if len(list) == 0 {
			return nil, fmt.Errorf("%s list is empty: every workload reports every end-to-end metric", phase)
		}
		seen := map[string]bool{}
		for _, w := range list {
			if w.WF < suite.MinID || w.WF > suite.MaxID || w.Scale <= 0 {
				return nil, fmt.Errorf("%s: bad entry %+v", phase, w)
			}
			if seen[w.key()] {
				return nil, fmt.Errorf("%s: %s listed twice", phase, w.key())
			}
			seen[w.key()] = true
		}
	}
	if len(sp.Serve) < 2 {
		return nil, fmt.Errorf("serve needs at least two workflows (the closed loop splits them over two clients)")
	}
	for _, id := range sp.Serve {
		if id < suite.MinID || id > suite.MaxID {
			return nil, fmt.Errorf("serve: bad workflow %d", id)
		}
	}
	if len(sp.Excluded) == 0 {
		return nil, fmt.Errorf("excluded list is required: it records which workflows explode and why")
	}
	return &sp, nil
}
