package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/essential-stats/etlopt/internal/serve"
	"github.com/essential-stats/etlopt/internal/suite"
)

// TestExitCode pins the documented process exit codes: 0 on success
// (including a degraded distributed fallback, which completes the run), 3
// on cancellation or deadline, 2 on an unknown suite workflow, 1 on any
// other runtime error.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		// A distributed run that loses every worker falls back in-process
		// and returns a nil error: degradation is reported on stderr, not
		// via the exit code.
		{"degraded fallback is success", nil, 0},
		{"canceled", context.Canceled, 3},
		{"deadline", context.DeadlineExceeded, 3},
		{"wrapped canceled", fmt.Errorf("run: %w", context.Canceled), 3},
		{"wrapped deadline", fmt.Errorf("run: %w", context.DeadlineExceeded), 3},
		{"unknown workflow", &suite.UnknownWorkflowError{ID: 99}, 2},
		{"wrapped unknown workflow", fmt.Errorf("suite: %w", &suite.UnknownWorkflowError{ID: 0}), 2},
		{"generic", errors.New("boom"), 1},
		{"wrapped generic", fmt.Errorf("run: %w", errors.New("boom")), 1},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestDistOptionsFor pins how -worker-addrs selects placement: the list is
// comma separated, trimmed, empty entries dropped; no address means a local
// run, any address a distributed one — and then only a suite workflow will
// do, since workers regenerate the data from (id, scale).
func TestDistOptionsFor(t *testing.T) {
	got := splitAddrs(" http://a:1 ,http://b:2,, ")
	if want := []string{"http://a:1", "http://b:2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("splitAddrs = %v, want %v", got, want)
	}
	cases := []struct {
		name    string
		o       options
		remote  bool
		wantErr string
	}{
		{"no addresses is local", options{wfID: 3}, false, ""},
		{"only separators is local", options{wfID: 3, workerAddrs: " , "}, false, ""},
		{"addresses place blocks remotely", options{wfID: 3, workerAddrs: "http://a:1"}, true, ""},
		{"a document cannot be distributed", options{file: "flow.json", dataDir: "d", workerAddrs: "http://a:1"}, false, "needs a suite workflow"},
		{"flat files cannot be distributed", options{wfID: 3, dataDir: "d", workerAddrs: "http://a:1"}, false, "needs a suite workflow"},
	}
	for _, tc := range cases {
		cfg, err := runConfig(&tc.o)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if (cfg.Dispatcher != nil) != tc.remote {
			t.Errorf("%s: dispatcher set = %v, want %v", tc.name, cfg.Dispatcher != nil, tc.remote)
		}
	}
}

// TestScheduleDispatches pins that schedule runs where -worker-addrs says:
// its observation runs reach the worker, where they once ran in-process
// whatever the flag said.
func TestScheduleDispatches(t *testing.T) {
	var runs atomic.Int64
	h := serve.NewWorker().Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/worker/run" {
			runs.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	fs, o := newFlags("schedule")
	if err := fs.Parse([]string{"-wf", "3", "-budget", "64", "-worker-addrs", srv.URL}); err != nil {
		t.Fatal(err)
	}
	if err := scheduleCmd(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if runs.Load() == 0 {
		t.Error("schedule -worker-addrs executed every run in-process")
	}
}

// scriptedFlags collects every -flag some etlopt command line of
// ../../scripts/*.sh passes (continuation lines joined, the command cut at
// the first pipe, redirect or separator).
func scriptedFlags(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("../../scripts/*.sh")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scripts found: %v", err)
	}
	command := regexp.MustCompile(`etlopt"?\s+[a-z]+\s(.*)`)
	driven := make(map[string]bool)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.ReplaceAll(string(src), "\\\n", " ")
		for _, line := range strings.Split(joined, "\n") {
			m := command.FindStringSubmatch(line)
			if m == nil || strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			for _, tok := range strings.Fields(m[1]) {
				if strings.ContainsAny(tok[:1], "|><&;") || strings.HasPrefix(tok, "2>") {
					break
				}
				if name := strings.TrimLeft(tok, "-"); name != tok {
					name, _, _ = strings.Cut(name, "=")
					driven[name] = true
				}
			}
		}
	}
	return driven
}

// TestEveryFlagIsDriven is ROADMAP item 7's bar as a check: a flag stays
// only while a smoke script runs the binary with it.
func TestEveryFlagIsDriven(t *testing.T) {
	driven := scriptedFlags(t)
	fs, _ := newFlags("census")
	fs.VisitAll(func(f *flag.Flag) {
		if !driven[f.Name] {
			t.Errorf("no etlopt command line in scripts/*.sh passes -%s: drive it or delete it", f.Name)
		}
	})
}
