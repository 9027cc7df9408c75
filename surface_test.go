package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const surfacePath = "testdata/surface.json"

// packageSurface is one package's line in the surface ledger.
type packageSurface struct {
	// Lines counts the physical lines of the package's non-test Go files.
	Lines int `json:"lines"`
	// Exported counts the names an importer can reach: exported top-level
	// constants, variables, functions and types, and the exported fields
	// and methods of exported types.
	Exported int `json:"exported"`
}

// surfaceLedger is testdata/surface.json: the module's packages, keyed
// by directory (bench/ and testdata/ left out), and their sum.
type surfaceLedger struct {
	Total    packageSurface            `json:"total"`
	Packages map[string]packageSurface `json:"packages"`
}

// TestSurfaceLedger recounts the non-test lines and exported
// identifiers of every package and compares them with the committed
// ledger, so a change that grows or shrinks a package shows it in the
// ledger's diff. After a deliberate change, rewrite the ledger with
//
//	go test -run TestSurfaceLedger -update .
func TestSurfaceLedger(t *testing.T) {
	got, err := measureSurface(".")
	if err != nil {
		t.Fatal(err)
	}
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
		if g != w {
			diffs = append(diffs, fmt.Sprintf("%s: lines %d → %d, exported %d → %d", dir, w.Lines, g.Lines, w.Exported, g.Exported))
		}
	}
	t.Errorf("the surface moved from %s (rerun with -update if that is intended):\n%s\ntotal: lines %d → %d, exported %d → %d",
		surfacePath, strings.Join(diffs, "\n"), want.Total.Lines, got.Total.Lines, want.Total.Exported, got.Total.Exported)
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

// measureSurface parses every non-test Go file under root, whatever its
// build constraints, so the ledger reads the same on every platform.
func measureSurface(root string) (*surfaceLedger, error) {
	ledger := &surfaceLedger{Packages: map[string]packageSurface{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "bench" || name == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
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
