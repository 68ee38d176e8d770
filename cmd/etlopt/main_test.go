package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/essential-stats/etlopt/internal/serve"
	"github.com/essential-stats/etlopt/internal/suite"
)

// TestExitCode pins the documented process exit codes: 0 on success
// (including a degraded distributed fallback, which completes the run), 3
// on cancellation or deadline, 2 on an unknown suite workflow or a missing
// argument, 1 on any other runtime error.
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
		{"missing argument", usageError("schedule needs -budget <units>"), 2},
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
	if dispatched(t, "schedule", "-wf", "3", "-budget", "64") == 0 {
		t.Error("schedule -worker-addrs executed every run in-process")
	}
}

// TestReportDispatches pins the same for report's one cycle.
func TestReportDispatches(t *testing.T) {
	if dispatched(t, "report", "-wf", "3") == 0 {
		t.Error("report -worker-addrs executed the cycle in-process")
	}
}

// dispatched runs subcommand cmd with args and -worker-addrs naming one
// in-process worker, and returns the block runs the worker received.
func dispatched(t *testing.T, cmd string, args ...string) int64 {
	t.Helper()
	var runs atomic.Int64
	h := serve.NewWorker().Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/worker/run" {
			runs.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	fs, o := newFlags(cmd)
	if err := fs.Parse(append(args, "-worker-addrs", srv.URL)); err != nil {
		t.Fatal(err)
	}
	if err := commands[cmd].run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	return runs.Load()
}

// scriptedFlags collects every (subcommand, -flag) pair some etlopt command
// line of ../../scripts/*.sh passes, as "subcommand -flag" (continuation
// lines joined, the command cut at the first pipe, redirect or separator).
func scriptedFlags(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("../../scripts/*.sh")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scripts found: %v", err)
	}
	command := regexp.MustCompile(`etlopt"?\s+([a-z]+)\s(.*)`)
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
			for _, tok := range strings.Fields(m[2]) {
				if strings.ContainsAny(tok[:1], "|><&;") || strings.HasPrefix(tok, "2>") {
					break
				}
				if name := strings.TrimLeft(tok, "-"); name != tok {
					name, _, _ = strings.Cut(name, "=")
					driven[m[1]+" -"+name] = true
				}
			}
		}
	}
	return driven
}

// TestEveryFlagIsDriven is ROADMAP item 7's bar as a check, one
// (subcommand, flag) pair at a time: a subcommand keeps a flag only while a
// smoke script runs that subcommand with it.
func TestEveryFlagIsDriven(t *testing.T) {
	driven := scriptedFlags(t)
	for cmd := range commands {
		fs, _ := newFlags(cmd)
		fs.VisitAll(func(f *flag.Flag) {
			if !driven[cmd+" -"+f.Name] {
				t.Errorf("no etlopt %s command line in scripts/*.sh passes -%s: drive it or take it out of the commands table", cmd, f.Name)
			}
		})
	}
}

// TestUnreadFlagsAreRefused walks every (subcommand, flag) pair the commands
// table does not name and requires the subcommand's flag set to refuse it as
// the flag package's usage error (exit 2 under flag.ExitOnError). Only the
// flag sets parse: no subcommand runs.
func TestUnreadFlagsAreRefused(t *testing.T) {
	all := make(map[string]bool)
	for _, c := range commands {
		for _, name := range strings.Fields(c.flags) {
			all[name] = true
		}
	}
	registered, refused := 0, 0
	for cmd, c := range commands {
		reads := strings.Fields(c.flags)
		for name := range all {
			fs, _ := newFlags(cmd)
			fs.Init(cmd, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			err := fs.Parse([]string{"-" + name})
			if slices.Contains(reads, name) {
				registered++
				if fs.Lookup(name) == nil {
					t.Errorf("%s does not register -%s, which its row names", cmd, name)
				}
				continue
			}
			refused++
			if want := "flag provided but not defined: -" + name; err == nil || err.Error() != want {
				t.Errorf("%s -%s: err = %v, want %q", cmd, name, err, want)
			}
		}
	}
	if n := len(commands) * len(all); registered+refused != n {
		t.Errorf("walked %d pairs, want %d", registered+refused, n)
	}
	t.Logf("%d subcommands × %d flags: %d pairs registered, %d refused", len(commands), len(all), registered, refused)
}
