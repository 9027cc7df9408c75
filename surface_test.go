package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const surfacePath = "testdata/surface.json"

// surfaceExceptions names the exported identifiers, as "dir.Name" or
// "dir.Type.Method", that no non-test file references but that stay
// exported, each with its reason. logictest is exempt wholesale: it is
// the tests' oracle, so tests are its only callers.
var surfaceExceptions = map[string]string{
	"internal/artifacts.Store.Bytes":     "engine's tests check the sbst_artifact_bytes gauge against the store's size",
	"internal/artifacts.Store.Len":       "engine's tests check that a run without a design hash caches nothing",
	"internal/chaos.Disarm":              "fault's tests that arm a chaos point restore the no-injection state with it",
	"internal/client.Client.Health":      "the worker e2e tests wait for a restarted coordinator through it",
	"internal/client.Client.Job":         "the worker e2e tests read a job's state through it",
	"internal/client.Client.WaitResult":  "the worker and sbstd e2e tests wait for a job's result through it",
	"internal/fault.LongestPaths":        "the root trace golden pins SimulatePathDelay on the longest paths, which the quality report's two-net pairs do not reach",
	"internal/metrics.Table.ColumnIndex": "selftest's tests address the metrics table by component and mode",
	"internal/obs.LintExposition":        "the obs and engine tests share it as the Prometheus exposition-format checker",
	"internal/obs.SetArmed":              "BenchmarkMetricsOverhead in internal/engine disarms the metrics to measure their cost",
}

// oracleDir is the package whose unreferenced names need no exception.
const oracleDir = "internal/logic/logictest"

// packageSurface is one package's line in the surface ledger.
type packageSurface struct {
	// Lines counts the physical lines of the package's non-test Go files.
	Lines int `json:"lines"`
	// Exported counts the names an importer can reach: exported top-level
	// constants, variables, functions and types, and the exported fields
	// and methods of exported types.
	Exported int `json:"exported"`
	// Unreferenced lists the exported top-level names and the exported
	// methods of exported types that no non-test Go file of the module or
	// of bench/ references (see unreferencedNames).
	Unreferenced []string `json:"unreferenced,omitempty"`
}

// surfaceLedger is testdata/surface.json: the module's packages, keyed
// by directory (bench/ and testdata/ left out), and their sum.
type surfaceLedger struct {
	Total    packageSurface            `json:"total"`
	Packages map[string]packageSurface `json:"packages"`
}

// TestSurfaceLedger recounts the non-test lines, exported identifiers
// and unreferenced exports of every package and compares them with the
// committed ledger, so a change that grows or shrinks a package shows
// it in the ledger's diff. After a deliberate change, rewrite the
// ledger with
//
//	go test -run TestSurfaceLedger -update .
//
// It also fails when an unreferenced export outside logictest has no
// entry in surfaceExceptions, or when an exception names an export that
// is referenced or gone.
func TestSurfaceLedger(t *testing.T) {
	got, err := measureSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	checkExceptions(t, got)
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(surfacePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(surfacePath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if bytes.Equal(raw, data) {
		return
	}
	var want surfaceLedger
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", surfacePath, err)
	}
	var diffs []string
	for _, dir := range sortedKeys(got.Packages, want.Packages) {
		g, w := got.Packages[dir], want.Packages[dir]
		if g.Lines != w.Lines || g.Exported != w.Exported {
			diffs = append(diffs, fmt.Sprintf("%s: lines %d → %d, exported %d → %d", dir, w.Lines, g.Lines, w.Exported, g.Exported))
		}
		if !reflect.DeepEqual(g.Unreferenced, w.Unreferenced) {
			diffs = append(diffs, fmt.Sprintf("%s: unreferenced %v → %v", dir, w.Unreferenced, g.Unreferenced))
		}
	}
	t.Errorf("the surface moved from %s (rerun with -update if that is intended):\n%s\ntotal: lines %d → %d, exported %d → %d",
		surfacePath, strings.Join(diffs, "\n"), want.Total.Lines, got.Total.Lines, want.Total.Exported, got.Total.Exported)
}

// checkExceptions holds the ledger's unreferenced lists to
// surfaceExceptions, in both directions.
func checkExceptions(t *testing.T, ledger *surfaceLedger) {
	t.Helper()
	listed := map[string]bool{}
	for dir, p := range ledger.Packages {
		if dir == oracleDir {
			continue
		}
		for _, name := range p.Unreferenced {
			key := dir + "." + name
			listed[key] = true
			if _, ok := surfaceExceptions[key]; !ok {
				t.Errorf("%s is exported but only tests reference it: delete it, unexport it, or give it an entry in surfaceExceptions", key)
			}
		}
	}
	for key := range surfaceExceptions {
		if !listed[key] {
			t.Errorf("surfaceExceptions names %s, which is referenced or gone: drop the entry", key)
		}
	}
}

func sortedKeys(a, b map[string]packageSurface) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]packageSurface{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// sourcePackage is the non-test Go files of one directory.
type sourcePackage struct {
	dir string
	// files are the ones this platform builds; only they are
	// type-checked. The files behind build constraints declare no
	// exported name, so the unreferenced lists read the same everywhere.
	files []*ast.File
	// caller marks bench/: its references count, its names are not
	// ledgered.
	caller bool
}

// measureSurface parses every non-test Go file under root, whatever its
// build constraints, so the line and export counts read the same on
// every platform.
func measureSurface(root string) (*surfaceLedger, error) {
	ledger := &surfaceLedger{Packages: map[string]packageSurface{}}
	fset := token.NewFileSet()
	pkgs := map[string]*sourcePackage{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		sp := pkgs[dir]
		if sp == nil {
			sp = &sourcePackage{dir: dir, caller: dir == "bench" || strings.HasPrefix(dir, "bench/")}
			pkgs[dir] = sp
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil {
			return err
		} else if ok {
			sp.files = append(sp.files, f)
		}
		if sp.caller {
			return nil
		}
		p := ledger.Packages[dir]
		p.Lines += bytes.Count(src, []byte("\n"))
		if len(src) > 0 && src[len(src)-1] != '\n' {
			p.Lines++
		}
		p.Exported += exportedNames(f)
		ledger.Packages[dir] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	unref, err := unreferencedNames(root, fset, pkgs)
	if err != nil {
		return nil, err
	}
	for dir, names := range unref {
		p := ledger.Packages[dir]
		p.Unreferenced = names
		ledger.Packages[dir] = p
	}
	for _, p := range ledger.Packages {
		ledger.Total.Lines += p.Lines
		ledger.Total.Exported += p.Exported
	}
	return ledger, nil
}

// exportedNames counts the importer-visible names one file declares.
func exportedNames(f *ast.File) int {
	count := 0
	countFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				if id.IsExported() {
					count++
				}
			}
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			if decl.Recv == nil || exportedReceiver(decl.Recv.List[0].Type) {
				count++
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							count++
						}
					}
				case *ast.TypeSpec:
					if !spec.Name.IsExported() {
						continue
					}
					count++
					switch typ := spec.Type.(type) {
					case *ast.StructType:
						countFields(typ.Fields)
					case *ast.InterfaceType:
						countFields(typ.Methods)
					}
				}
			}
		}
	}
	return count
}

// exportedReceiver reports whether a method's receiver names an
// exported type (T, *T, T[P] or *T[P]).
func exportedReceiver(expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.IsExported()
		default:
			return false
		}
	}
}

// unreferencedNames type-checks every package, bench/ included, and
// returns per ledgered directory the sorted exported names that no
// non-test file references. A name counts as referenced when any
// non-test file uses it, its own package's included, other than in the
// receiver of one of its own methods. What is counted:
//
//   - exported top-level constants, variables, functions and types,
//     except constants of a type the module declares (enum members,
//     which are reached by value, not by name);
//   - exported methods of exported named types, as "Type.Method",
//     except a method that lets its type implement an interface with a
//     method of that name, declared in the module, in a package it
//     imports or inline (String, Error, ServeHTTP and the like are
//     called through the interface).
//
// Fields are not counted: encoding/json reaches them by reflection.
func unreferencedNames(root string, fset *token.FileSet, pkgs map[string]*sourcePackage) (map[string][]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	byPath := map[string]*sourcePackage{}
	external := map[string]bool{}
	for _, sp := range pkgs {
		byPath[importPath(modPath, sp.dir)] = sp
	}
	for _, sp := range pkgs {
		for _, f := range sp.files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if byPath[path] == nil && path != "unsafe" {
					external[path] = true
				}
			}
		}
	}
	exports, err := exportFiles(root, external)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{
		fset:    fset,
		byPath:  byPath,
		checked: map[string]*types.Package{},
		infos:   map[string]*types.Info{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(file)
		}),
	}
	for path := range byPath {
		if _, err := imp.Import(path); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, dep := range p.Imports() {
			addScope(dep)
		}
	}
	for path, info := range imp.infos {
		addScope(imp.checked[path])
		recv := receiverIdents(byPath[path].files)
		for id, obj := range info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin() // a method of an instantiated generic type
			}
			if !recv[id] {
				used[obj] = true
			}
		}
		for _, tv := range info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				addIface(tv.Type)
			}
		}
	}
	implements := func(t types.Type, method string) bool {
		for _, it := range ifaces[method] {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}

	out := map[string][]string{}
	for path, sp := range byPath {
		if sp.caller {
			continue
		}
		scope := imp.checked[path].Scope()
		var names []string
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if c, ok := obj.(*types.Const); ok {
				if n, ok := c.Type().(*types.Named); ok && byPath[n.Obj().Pkg().Path()] != nil {
					continue
				}
			}
			if !used[obj] {
				names = append(names, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !implements(named, m.Name()) {
					names = append(names, name+"."+m.Name())
				}
			}
		}
		if len(names) > 0 {
			sort.Strings(names)
			out[sp.dir] = names
		}
	}
	return out, nil
}

// receiverIdents returns the identifiers in the receivers of the
// files' method declarations: a type named only by its own methods'
// receivers has no caller.
func receiverIdents(files []*ast.File) map[*ast.Ident]bool {
	idents := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						idents[id] = true
					}
					return true
				})
			}
		}
	}
	return idents
}

// moduleImporter type-checks the module's packages from source, each
// once, and reads every other package from the build cache's export
// data.
type moduleImporter struct {
	fset    *token.FileSet
	byPath  map[string]*sourcePackage
	std     types.Importer
	checked map[string]*types.Package
	infos   map[string]*types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.checked[path]; p != nil {
		return p, nil
	}
	sp := m.byPath[path]
	if sp == nil {
		return m.std.Import(path)
	}
	var errs []string
	conf := types.Config{Importer: m, Error: func(err error) { errs = append(errs, err.Error()) }}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	p, _ := conf.Check(path, m.fset, sp.files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s:\n%s", path, strings.Join(errs, "\n"))
	}
	m.checked[path] = p
	m.infos[path] = info
	return p, nil
}

// exportFiles asks the go command where the build cache keeps the
// export data of the given packages, building them if it must.
func exportFiles(root string, paths map[string]bool) (map[string]string, error) {
	out := map[string]string{}
	if len(paths) == 0 {
		return out, nil
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range paths {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	data, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if path, file, ok := strings.Cut(sc.Text(), "\t"); ok && file != "" {
			out[path] = file
		}
	}
	return out, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func importPath(modPath, dir string) string {
	if dir == "." {
		return modPath
	}
	return modPath + "/" + dir
}

// TestUnreferencedWalk runs the walk on a module built in a temporary
// directory, where every kind of reference it must tell apart occurs
// once.
func TestUnreferencedWalk(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"a/a.go": `package a

// Kind is an enum: its constants are reached by value.
type Kind int

const (
	KindA Kind = iota
	KindB
)

// Shower is satisfied by T.
type Shower interface{ Show() string }

type T struct{}

func (T) String() string  { return "t" } // fmt.Stringer
func (T) Show() string    { return "s" } // Shower
func (T) Used()           {}
func (T) TestOnlyMethod() {}

// Orphan is named only by its own method's receiver.
type Orphan struct{}

func (Orphan) Do() {}

func Internal() Kind { return KindA }
func Run() Kind      { return Internal() }
func BenchOnly()     {}
func TestOnly()      {}
`,
		"a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) {
	TestOnly()
	T{}.TestOnlyMethod()
	_ = KindB
}
`,
		"cmd/main.go": `package main

import (
	"fmt"

	"fixture/a"
)

func main() {
	var s a.Shower = a.T{}
	a.T{}.Used()
	fmt.Println(s, a.Run())
}
`,
		"bench/main.go": `package main

import "fixture/a"

func main() { a.BenchOnly() }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := measureSurface(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Orphan", "Orphan.Do", "T.TestOnlyMethod", "TestOnly"}
	if a := got.Packages["a"].Unreferenced; !reflect.DeepEqual(a, want) {
		t.Errorf("a: unreferenced %v, want %v", a, want)
	}
	if c := got.Packages["cmd"].Unreferenced; c != nil {
		t.Errorf("cmd: unreferenced %v, want none", c)
	}
	if _, ok := got.Packages["bench"]; ok {
		t.Error("bench/ is ledgered; it should only count as a caller")
	}
}
