package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// listedPackage is the part of `go list -json` the census reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

// checkedPackage is one non-test package of the tree, type-checked from
// source.
type checkedPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// typeCheckTree type-checks the non-test files of every package of the
// module and of the nested bench/ module from source, dependencies first;
// the standard library comes from the compiler's export data, located by
// one `go list -export` per module.
func typeCheckTree(t *testing.T) []*checkedPackage {
	t.Helper()
	var listed []listedPackage
	for _, dir := range []string{"../..", "../../bench"} {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Standard,Export", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			listed = append(listed, p)
		}
	}
	fset := token.NewFileSet()
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := make(map[string]*types.Package)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var tree []*checkedPackage
	for _, p := range listed {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		cp := &checkedPackage{info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, f)
		}
		var err error
		if cp.pkg, err = conf.Check(p.ImportPath, fset, cp.files, cp.info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = cp.pkg
		tree = append(tree, cp)
	}
	return tree
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// optionStruct matches the struct types whose exported fields are options:
// each one doubles the configurations tests and benchmarks must cover.
var optionStruct = regexp.MustCompile(`(Options|Policy|Spec)$|^Config$`)

// censusAllowed lists the exported names under internal/ that no product
// code outside their package uses, each with the reason it stays. A key
// without a dot covers a whole package.
var censusAllowed = map[string]string{
	"wftest": "test support: wftest's callers are tests",

	// References tests hold the product to.
	"selector.Universe.Covered":      "the brute-force reference the exact solver is tested against: does a subset cover every requirement",
	"selector.Universe.ObservedCost": "the brute-force reference the exact solver is tested against: what a subset costs",
	"engine.BlockFailure":            "typed error: serve's distributed tests match a remote run's failed block and error against the local run's with errors.As",

	// Fixture constructors and constants other packages' tests build with.
	"faults.New":          "fixture constructor: core, engine and suite tests build injectors with it",
	"stats.BlockRejectSE": "fixture constructor: costmodel, css and engine tests spell reject targets with it",

	// Values of an enumeration whose other values product code names.
	"workflow.KindSource": "a NodeKind the Builder and the JSON codec spell; wftest's tests count sources by it",
	"workflow.KindJoin":   "a NodeKind the Builder and the JSON codec spell",
	"workflow.KindSink":   "a NodeKind the Builder and the JSON codec spell",
}

// TestEveryExportedNameHasACaller is the census at package-API level: an
// exported func, type, method, package-level var or const under internal/
// stays only while it is live, and an exported field of an Options /
// Policy / Spec / Config struct only while non-test code sets it (a keyed
// literal, an assignment, an increment or its address; `if o.F == 0 {
// o.F = d }` fills a default in and does not count). A name is live when
// non-test code outside its package — another internal/ package, cmd/,
// examples/ or bench/ — uses it, when it is a method a live type needs to
// satisfy an interface, or when it appears in the signature, fields or
// type of a live name. Names resolve through go/types, so two fields or
// methods that share a name are told apart. Whatever else stays is listed
// in censusAllowed with its reason.
func TestEveryExportedNameHasACaller(t *testing.T) {
	tree := typeCheckTree(t)
	inCensus := func(pkg *types.Package) bool {
		return pkg != nil && strings.Contains(pkg.Path()+"/", "/internal/")
	}

	// declared maps every exported name under internal/ to its census id.
	declared := make(map[types.Object]string)
	options := make(map[types.Object]bool)
	var named []*types.Named
	for _, cp := range tree {
		if !inCensus(cp.pkg) {
			continue
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			id := cp.pkg.Name() + "." + name
			declared[obj] = id
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			named = append(named, n)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					declared[m] = id + "." + m.Name()
				}
			}
			if st, ok := n.Underlying().(*types.Struct); ok && optionStruct.MatchString(name) {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						declared[f] = id + "." + f.Name()
						options[f] = true
					}
				}
			}
		}
	}

	// Uses from outside the declaring package seed the live set; an option
	// field is seeded only by a write.
	live := make(map[types.Object]bool)
	for _, cp := range tree {
		for _, f := range cp.files {
			for obj := range optionWrites(f, cp.info) {
				if options[obj] {
					live[obj] = true
				}
			}
		}
		for _, obj := range cp.info.Uses {
			obj = origin(obj)
			if obj.Pkg() != cp.pkg && declared[obj] != "" && !options[obj] {
				live[obj] = true
			}
		}
	}

	// Interfaces a live type may be asked to satisfy: every named interface
	// the tree can reach outside internal/, every interface type written in
	// the tree's code, and the live interfaces under internal/.
	var external []*types.Interface
	seen := make(map[*types.Package]bool)
	var reach func(pkg *types.Package)
	reach = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if !inCensus(pkg) {
			external = append(external, interfacesIn(pkg.Scope())...)
		}
		for _, dep := range pkg.Imports() {
			reach(dep)
		}
	}
	external = append(external, interfacesIn(types.Universe)...)
	for _, cp := range tree {
		reach(cp.pkg)
		for _, tv := range cp.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				external = append(external, it)
			}
		}
	}

	// propagate grows live to a fixed point.
	propagate := func() {
		for changed := true; changed; {
			changed = false
			mark := func(obj types.Object) {
				obj = origin(obj)
				if declared[obj] != "" && !live[obj] {
					live[obj] = true
					changed = true
				}
			}
			for obj := range live {
				walkType(obj.Type(), mark)
			}
			ifaces := external
			for _, n := range named {
				if it, ok := n.Underlying().(*types.Interface); ok && live[n.Obj()] {
					ifaces = append(ifaces, it)
				}
			}
			for _, n := range named {
				if !live[n.Obj()] {
					continue
				}
				if _, ok := n.Underlying().(*types.Interface); ok {
					continue
				}
				ptr := types.NewPointer(n)
				for _, it := range ifaces {
					if !types.Implements(n, it) && !types.Implements(ptr, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						if m, _, _ := types.LookupFieldOrMethod(ptr, false, n.Obj().Pkg(), it.Method(i).Name()); m != nil {
							mark(m)
						}
					}
				}
				// errors.Is, As and Unwrap reach these through interfaces
				// declared inside package errors' functions.
				if types.Implements(ptr, types.Universe.Lookup("error").Type().Underlying().(*types.Interface)) {
					for _, name := range []string{"Unwrap", "Is", "As"} {
						if m, _, _ := types.LookupFieldOrMethod(ptr, false, n.Obj().Pkg(), name); m != nil {
							mark(m)
						}
					}
				}
			}
		}
	}
	propagate()

	// An allowed name product code reaches is stale; the others join the
	// live set, with what they need.
	allowed := func(id string) bool {
		pkgName, _, _ := strings.Cut(id, ".")
		_, whole := censusAllowed[pkgName]
		_, byName := censusAllowed[id]
		return whole || byName
	}
	reached := len(live)
	listed := make(map[string]bool)
	for obj, id := range declared {
		if !allowed(id) {
			continue
		}
		pkgName, _, _ := strings.Cut(id, ".")
		if _, whole := censusAllowed[pkgName]; whole {
			listed[pkgName] = true
		} else {
			listed[id] = true
			if live[obj] {
				t.Errorf("%s is used by product code now: drop it from censusAllowed", id)
			}
		}
		live[obj] = true
	}
	for id := range censusAllowed {
		if !listed[id] {
			t.Errorf("censusAllowed names %s, which is not an exported name under internal/", id)
		}
	}
	propagate()

	var dead []string
	for obj, id := range declared {
		if !live[obj] {
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	for _, id := range dead {
		what := "no non-test code outside its package uses it"
		if obj := strings.Split(id, "."); len(obj) == 3 && optionStruct.MatchString(obj[1]) {
			what = "no non-test code sets it"
		}
		t.Errorf("%s: %s: give it a caller, unexport it, delete it, or list it in censusAllowed with the reason it stays", id, what)
	}
	if len(declared) == 0 {
		t.Fatal("found no exported names under internal/")
	}
	t.Logf("%d exported names under internal/: %d reached by product code, %d more allowed or needed by an allowed name, %d dead",
		len(declared), reached, len(live)-reached, len(dead))
}

// origin maps an instantiated generic field or method to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// optionWrites returns the struct fields a file gives a value: keyed
// literal keys, assignment and increment targets and address operands,
// except the assignment that fills a default in under an `if` testing the
// same expression.
func optionWrites(f *ast.File, info *types.Info) map[types.Object]bool {
	written := make(map[types.Object]bool)
	field := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				written[v.Origin()] = true
			}
		}
	}
	defaulting := make(map[ast.Stmt]bool)
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
			if !defaulting[n] {
				for _, lhs := range n.Lhs {
					field(lhs)
				}
			}
		case *ast.IncDecStmt:
			field(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[key].(*types.Var); ok && v.IsField() {
					written[v.Origin()] = true
				}
			}
		}
		return true
	})
	return written
}

// interfacesIn returns the named interface types declared in a scope.
func interfacesIn(scope *types.Scope) []*types.Interface {
	var out []*types.Interface
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	return out
}

// walkType calls mark for every named type a type is spelt with, and for a
// named type under internal/, the types of its exported fields and of its
// interface methods' signatures.
func walkType(typ types.Type, mark func(types.Object)) {
	visited := make(map[types.Type]bool)
	var walk func(types.Type)
	walk = func(typ types.Type) {
		if typ == nil || visited[typ] {
			return
		}
		visited[typ] = true
		switch t := typ.(type) {
		case *types.Named:
			mark(t.Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			if t.Obj().Pkg() != nil && strings.Contains(t.Obj().Pkg().Path(), "/internal/") {
				walk(t.Underlying())
			}
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			if r := t.Recv(); r != nil {
				walk(r.Type())
			}
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	walk(typ)
}
