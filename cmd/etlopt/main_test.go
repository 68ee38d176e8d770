package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

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

// optionStruct matches the struct types whose exported fields are options:
// each one doubles the configurations tests and benchmarks must cover.
var optionStruct = regexp.MustCompile(`(Options|Policy|Spec)$|^Config$`)

// unsetOptionFields lists the option fields no product code writes, each
// with the reason it stays.
var unsetOptionFields = map[string]string{
	"core.AdaptiveOptions.MaxReplans":         "test seam: TestAdaptiveMaxReplansCap lowers the cap to see it bite",
	"serve.CoordinatorOptions.HeartbeatEvery": "timing seam: the lease-expiry tests shorten it from 200ms",
	"serve.CoordinatorOptions.LeaseTTL":       "timing seam: the lease-expiry tests shorten it from 2s",
	"wftest.Options.MaxRelations":             "test support: wftest's callers are tests",
	"wftest.Options.MaxCard":                  "test support: wftest's callers are tests",
}

// TestEveryOptionFieldIsSet is the census one tier below the flags: an
// exported field of an Options / Policy / Config / Spec struct under
// internal/ stays only while some non-test code in internal/, cmd/,
// examples/ or bench/ gives it a value — a keyed literal of its type, or an
// assignment to (or the address of) a selector of that name. go/ast sees no
// types, so a selector write counts for every option field of that name;
// the check can miss a dead field, never condemn a live one.
func TestEveryOptionFieldIsSet(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, root := range []string{"../../internal", "../../cmd", "../../examples", "../../bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			files = append(files, f)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// written holds "pkg.Type.Field" for keyed literals of a named type and
	// ".Field" for selector writes and literals whose type is elided.
	written := make(map[string]bool)
	selector := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			written["."+sel.Sel.Name] = true
		}
	}
	// `if opt.F <= 0 { opt.F = fallback }` fills a default in; it is the
	// mark of a field nobody sets, not a setter.
	defaulting := make(map[ast.Stmt]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				tested := make(map[string]bool)
				ast.Inspect(n.Cond, func(c ast.Node) bool {
					if sel, ok := c.(*ast.SelectorExpr); ok {
						tested[types.ExprString(sel)] = true
					}
					return true
				})
				for _, stmt := range n.Body.List {
					if as, ok := stmt.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && tested[types.ExprString(as.Lhs[0])] {
						defaulting[as] = true
					}
				}
			case *ast.AssignStmt:
				if defaulting[n] {
					break
				}
				for _, lhs := range n.Lhs {
					selector(lhs)
				}
			case *ast.IncDecStmt:
				selector(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					selector(n.X)
				}
			case *ast.CompositeLit:
				prefix := "."
				switch typ := n.Type.(type) {
				case *ast.Ident:
					prefix = f.Name.Name + "." + typ.Name + "."
				case *ast.SelectorExpr:
					if pkg, ok := typ.X.(*ast.Ident); ok {
						prefix = pkg.Name + "." + typ.Sel.Name + "."
					}
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							written[prefix+key.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	declared := 0
	for _, f := range files {
		if !strings.Contains(fset.Position(f.Pos()).Filename, "/internal/") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok || !optionStruct.MatchString(spec.Name.Name) {
				return true
			}
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if !name.IsExported() {
						continue
					}
					declared++
					id := f.Name.Name + "." + spec.Name.Name + "." + name.Name
					_, allowed := unsetOptionFields[id]
					set := written[id] || written["."+name.Name]
					switch {
					case !set && !allowed:
						t.Errorf("%s: no non-test code sets it: give it a caller, make it a constant, or list it in unsetOptionFields with the reason it stays", id)
					case set && allowed:
						t.Errorf("%s is set by product code now: drop it from unsetOptionFields", id)
					}
				}
			}
			return false
		})
	}
	if declared == 0 {
		t.Fatal("found no option structs under internal/")
	}
	t.Logf("%d option fields declared, %d allowed unset", declared, len(unsetOptionFields))
}
