package repro

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// knobExceptions names the knobs, as "dir.Knob", that no non-test file
// sets or none reads but that stay, each with its reason. A knob is
// named as in the ledger's knob_names: "Type.Field", "-flag" or "$ENV".
var knobExceptions = map[string]string{
	"internal/api.JobSpec.Workers":            "accepted and ignored; the server decodes specs with DisallowUnknownFields, so dropping it would refuse clients that still send it (ROADMAP item 23(c))",
	"internal/api.LeaseFailure.Retryable":     "sbst-worker marks terminal unit errors with it, but LeasePool.Fail requeues a failed unit either way; honouring or dropping it changes the lease protocol that TestWireGolden pins",
	"internal/client.Options.RetryBase":       "the worker e2e tests (TestDistributedCampaignE2E, TestMatrixCampaignE2E, TestSSEFollowAndTraceMergeE2E, TestCoordinatorCrashRecoveryE2E, TestGaCrashRecoveryE2E) shorten or stretch the client's backoff with it",
	"internal/client.Options.RetryMax":        "the worker e2e tests (TestDistributedCampaignE2E, TestMatrixCampaignE2E, TestSSEFollowAndTraceMergeE2E, TestCoordinatorCrashRecoveryE2E, TestGaCrashRecoveryE2E) shorten or stretch the client's backoff with it",
	"internal/engine.ExecConfig.Workers":      "bench/ sets it; accepted and ignored until ROADMAP item 10(g)",
	"internal/engine.PoolOptions.RetryBase":   "the worker e2e tests (TestDistributedCampaignE2E, TestMatrixCampaignE2E, TestSSEFollowAndTraceMergeE2E, the ga_search e2e tests) shorten a failed unit's backoff with it",
	"internal/engine.PoolOptions.RetryMax":    "the worker e2e tests (TestDistributedCampaignE2E, TestMatrixCampaignE2E, TestSSEFollowAndTraceMergeE2E, the ga_search e2e tests) shorten a failed unit's backoff with it",
	"internal/engine.QueueOptions.Checkpoint": "bench/ sets it; ignored until ROADMAP item 10(g)",
	"internal/engine.SimOptions.Workers":      "bench/ sets it; accepted and ignored until ROADMAP item 10(g)",
	"internal/fault.SimOptions.LaneWords":     "TestKernelGolden (kernel_golden_test.go), benchSimulate in internal/engine and fault's kernel differential and audit tests pin the lane width with it",
	"internal/fault.SimOptions.ShadowSeed":    "TestDefaultAuditCoversEveryCall (package fault_test) sweeps it over seeds 1-20, and TestAuditCatchesPlantedCorruption picks the audited windows with it",
}

// knobSuffixes are the struct-name endings whose exported fields are
// knobs.
var knobSuffixes = []string{"Options", "Config", "Spec", "Params"}

// flagRegistrations maps each flag-registering function or method of
// package flag to the index of its name argument.
var flagRegistrations = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1,
	"Int64Var": 1, "StringVar": 1, "UintVar": 1, "Uint64Var": 1,
	"Var": 1, "TextVar": 1,
}

// packageKnobs is one package's knobs: all of them, and those that no
// non-test file sets or none reads, each list sorted.
type packageKnobs struct {
	names, unset, unread []string
}

// knob is one knob and what the non-test code does with it.
type knob struct {
	dir, name string
	// set and read are fixed at discovery for a flag or an environment
	// variable; a field's, and a bound flag's, also come from the uses
	// of target, the field or variable.
	set, read bool
	target    *types.Var
}

// measureKnobs lists, per ledgered directory, the knobs a caller can
// turn:
//
//   - the exported fields of exported structs whose names end in
//     Options, Config, Spec or Params, and of the request types: the
//     module's structs that an HTTP handler (a function with an
//     *http.Request parameter) decodes JSON into, and the structs they
//     contain;
//   - each flag registered through package flag, as "-name";
//   - each os.Getenv or os.LookupEnv key, as "$KEY".
//
// A field is set by a composite-literal key, a positional literal, an
// assignment, or by having its address taken (a flag binds it so). Its
// own package's checks neither set nor read it: in the defaulting
// `if o.F == 0 { o.F = def }` the assignment sets nothing and the
// comparison reads nothing, and neither does comparing it with a
// constant or nil in the condition of an if whose body only returns
// an error (a bound check). A request type's JSON-tagged fields are
// set by decoding the client's JSON. Any other use reads the field,
// and so does encoding/json marshalling a value that contains it,
// except for a request field: a field the program only decodes and
// re-encodes (to a journal, to a worker) has no reader.
// A flag and an environment variable are set by the command line and
// the environment; a flag is read when its variable is, an environment
// variable when its lookup's result is used.
func measureKnobs(imp *moduleImporter) map[string]*packageKnobs {
	var knobs []*knob
	listed := map[*types.Var]bool{}
	addField := func(dir string, tn *types.TypeName, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !f.Embedded() && !listed[f] {
				listed[f] = true
				knobs = append(knobs, &knob{dir: dir, name: tn.Name() + "." + f.Name(), target: f})
			}
		}
	}
	for path, sp := range imp.byPath {
		if sp.caller {
			continue
		}
		scope := imp.checked[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !hasKnobSuffix(name) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				addField(sp.dir, tn, st)
			}
		}
	}

	// The request types, and the fields their decoding sets.
	decoded := map[*types.Var]bool{}
	for _, root := range requestTypes(imp) {
		tn := root.Obj()
		if sp := imp.byPath[tn.Pkg().Path()]; !sp.caller {
			st := root.Underlying().(*types.Struct)
			addField(sp.dir, tn, st)
			for i := 0; i < st.NumFields(); i++ {
				if name, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ","); name != "-" {
					decoded[st.Field(i)] = true
				}
			}
		}
	}

	set, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	marshalled := map[*types.Var]bool{}
	for path, info := range imp.infos {
		sp := imp.byPath[path]
		pkg := imp.checked[path]
		for _, f := range sp.files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return false
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.Ident:
					v, ok := info.Uses[n].(*types.Var)
					if !ok {
						return true
					}
					u := classifyUse(info, stack, v.IsField())
					if ifs, inCond := enclosingIf(stack); ifs != nil && v.IsField() && v.Pkg() == pkg {
						switch {
						case inCond && u.bounded && (rejects(ifs.Body) || assigns(info, ifs.Body, v)):
							u.read = false // a bound check, or the test of a defaulting
						case !inCond && u.assigned && mentions(info, ifs.Cond, v):
							u.set = false // a defaulting's assignment
						}
					}
					set[v] = set[v] || u.set
					read[v] = read[v] || u.read
				case *ast.CompositeLit:
					if len(n.Elts) == 0 {
						return true
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
						return true
					}
					if st, ok := derefType(info.Types[n].Type).Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							set[st.Field(i)] = true
						}
					}
				case *ast.CallExpr:
					fn := calledFunc(info, n)
					if fn == nil || fn.Pkg() == nil {
						return true
					}
					switch fn.Pkg().Path() + "." + fn.Name() {
					case "encoding/json.Marshal", "encoding/json.MarshalIndent", "encoding/json.Encode":
						if len(n.Args) > 0 {
							markMarshalled(info.Types[n.Args[0]].Type, marshalled, map[types.Type]bool{})
						}
					case "os.Getenv", "os.LookupEnv":
						if key, ok := constString(info, n.Args[0]); ok && !sp.caller {
							_, bare := stack[len(stack)-2].(*ast.ExprStmt)
							knobs = append(knobs, &knob{dir: sp.dir, name: "$" + key, set: true, read: !bare})
						}
					}
					if k := flagKnob(info, stack, fn, n); k != nil && !sp.caller {
						k.dir = sp.dir
						knobs = append(knobs, k)
					}
				}
				return true
			})
		}
	}

	// A key looked up, or a flag registered, more than once is one knob.
	merged := map[string]map[string]*knob{}
	for _, k := range knobs {
		if v := k.target; v != nil {
			k.set = k.set || set[v] || decoded[v]
			k.read = k.read || read[v] || (marshalled[v] && !decoded[v])
		}
		if merged[k.dir] == nil {
			merged[k.dir] = map[string]*knob{}
		}
		if m := merged[k.dir][k.name]; m != nil {
			m.set, m.read = m.set || k.set, m.read || k.read
		} else {
			merged[k.dir][k.name] = k
		}
	}
	out := map[string]*packageKnobs{}
	for dir, byName := range merged {
		p := &packageKnobs{}
		for name, k := range byName {
			p.names = append(p.names, name)
			if !k.set {
				p.unset = append(p.unset, name)
			}
			if !k.read {
				p.unread = append(p.unread, name)
			}
		}
		sort.Strings(p.names)
		sort.Strings(p.unset)
		sort.Strings(p.unread)
		out[dir] = p
	}
	return out
}

func hasKnobSuffix(name string) bool {
	for _, s := range knobSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// use is what one non-test use of a variable or field does.
type use struct {
	set, read bool
	// assigned: set by a plain assignment; bounded: compared with a
	// constant or nil.
	assigned, bounded bool
}

// classifyUse classifies the identifier at the top of stack, a
// variable or a field.
func classifyUse(info *types.Info, stack []ast.Node, field bool) use {
	id := stack[len(stack)-1]
	i := len(stack) - 2
	switch p := stack[i].(type) {
	case *ast.KeyValueExpr:
		if p.Key == id && field {
			return use{set: true}
		}
	case *ast.SelectorExpr:
		if p.Sel != id {
			return use{read: true}
		}
		i--
	}
	expr := stack[i+1]
	for ; i > 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); !ok {
			break
		}
		expr = stack[i]
	}
	switch p := stack[i].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == expr {
				plain := p.Tok == token.ASSIGN || p.Tok == token.DEFINE
				return use{set: true, read: !plain, assigned: plain}
			}
		}
	case *ast.IncDecStmt:
		return use{set: true, read: true}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return use{set: true}
		}
	case *ast.BinaryExpr:
		other := p.X
		if other == expr {
			other = p.Y
		}
		tv := info.Types[other]
		switch p.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return use{read: true, bounded: tv.Value != nil || tv.IsNil()}
		}
	}
	return use{read: true}
}

// enclosingIf returns the nearest if around the top of stack, and
// whether the top lies in its condition; nil when the top lies in
// neither its condition nor its body.
func enclosingIf(stack []ast.Node) (ifs *ast.IfStmt, inCond bool) {
	for i := len(stack) - 2; i > 0; i-- {
		if ifs, ok := stack[i].(*ast.IfStmt); ok {
			switch stack[i+1] {
			case ifs.Cond:
				return ifs, true
			case ifs.Body:
				return ifs, false
			}
			return nil, false
		}
	}
	return nil, false
}

// rejects reports whether a block only returns an error: one return
// statement whose last result is not nil.
func rejects(body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	id, ok := ret.Results[len(ret.Results)-1].(*ast.Ident)
	return !ok || id.Name != "nil"
}

// assigns reports whether one of a block's statements assigns field v.
func assigns(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	for _, st := range body.List {
		if as, ok := st.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && info.Uses[sel.Sel] == v {
					return true
				}
			}
		}
	}
	return false
}

// mentions reports whether an expression uses v.
func mentions(info *types.Info, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// flagKnob returns the flag a call registers, or nil when fn is not a
// flag registration. Its read is decided here when it can be: a Func
// or BoolFunc flag calls its function, and a flag whose pointer is
// not bound to a variable is read where it is dereferenced. Otherwise
// the flag is read when the variable or field it binds is.
func flagKnob(info *types.Info, stack []ast.Node, fn *types.Func, call *ast.CallExpr) *knob {
	if fn.Pkg().Path() != "flag" {
		return nil
	}
	if sig := fn.Type().(*types.Signature); sig.Recv() != nil && derefType(sig.Recv().Type()).String() != "flag.FlagSet" {
		return nil
	}
	idx, ok := flagRegistrations[fn.Name()]
	if !ok || len(call.Args) <= idx {
		return nil
	}
	name, ok := constString(info, call.Args[idx])
	if !ok {
		return nil
	}
	k := &knob{name: "-" + name, set: true}
	switch {
	case fn.Name() == "Func" || fn.Name() == "BoolFunc":
		k.read = true
	case idx == 1:
		k.target = boundVar(info, call.Args[0])
		k.read = k.target == nil
	default:
		switch p := stack[len(stack)-2].(type) {
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if rhs == call && len(p.Lhs) == len(p.Rhs) {
					k.target = boundVar(info, p.Lhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, v := range p.Values {
				if v == call && len(p.Names) == len(p.Values) {
					k.target = boundVar(info, p.Names[i])
				}
			}
		case *ast.ExprStmt:
			return k
		default:
			k.read = true
		}
	}
	return k
}

// boundVar returns the variable or field an expression (x, &x, o.F or
// &o.F) names, or nil.
func boundVar(info *types.Info, e ast.Expr) *types.Var {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if s, ok := e.(*ast.SelectorExpr); ok {
		e = s.Sel
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// requestTypes returns the module's named structs that an HTTP handler
// decodes JSON into (with json.Unmarshal or a json.Decoder), and the
// module's named structs those contain.
func requestTypes(imp *moduleImporter) []*types.Named {
	seen := map[*types.Named]bool{}
	var out []*types.Named
	var add func(t types.Type)
	add = func(t types.Type) {
		n, ok := elemType(t).(*types.Named)
		if !ok || seen[n] || n.Obj().Pkg() == nil || imp.byPath[n.Obj().Pkg().Path()] == nil {
			return
		}
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			return
		}
		seen[n] = true
		out = append(out, n)
		for i := 0; i < st.NumFields(); i++ {
			add(st.Field(i).Type())
		}
	}
	for path, info := range imp.infos {
		for _, f := range imp.byPath[path].files {
			ast.Inspect(f, func(n ast.Node) bool {
				var ft *ast.FuncType
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					ft, body = fn.Type, fn.Body
				case *ast.FuncLit:
					ft, body = fn.Type, fn.Body
				default:
					return true
				}
				if body == nil || !takesRequest(info, ft) {
					return true
				}
				ast.Inspect(body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calledFunc(info, call)
					if fn == nil || fn.Pkg() == nil {
						return true
					}
					switch fn.Pkg().Path() + "." + fn.Name() {
					case "encoding/json.Unmarshal":
						if len(call.Args) == 2 {
							add(info.Types[call.Args[1]].Type)
						}
					case "encoding/json.Decode":
						if len(call.Args) == 1 {
							add(info.Types[call.Args[0]].Type)
						}
					}
					return true
				})
				return false
			})
		}
	}
	return out
}

// takesRequest reports whether a function has an *http.Request
// parameter.
func takesRequest(info *types.Info, ft *ast.FuncType) bool {
	for _, field := range ft.Params.List {
		if t := info.Types[field.Type].Type; t != nil && t.String() == "*net/http.Request" {
			return true
		}
	}
	return false
}

// markMarshalled marks every field encoding/json writes when it
// marshals a value of type t.
func markMarshalled(t types.Type, marked map[*types.Var]bool, seen map[types.Type]bool) {
	t = elemType(t)
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		name, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		if name == "-" || (!f.Exported() && !f.Embedded()) {
			continue
		}
		marked[f] = true
		markMarshalled(f.Type(), marked, seen)
	}
}

// elemType strips pointers, slices, arrays and maps down to the element
// type.
func elemType(t types.Type) types.Type {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return t
		}
	}
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// calledFunc returns the function or method a call invokes, or nil for
// a call of a function value or a conversion.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv := info.Types[e]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkKnobExceptions holds the ledger's unset and unread knobs to
// knobExceptions, in both directions.
func checkKnobExceptions(t *testing.T, ledger *surfaceLedger) {
	t.Helper()
	idle := map[string]bool{}
	for dir, p := range ledger.Packages {
		for _, lst := range []struct {
			names []string
			what  string
		}{{p.Unset, "sets"}, {p.Unread, "reads"}} {
			for _, name := range lst.names {
				key := dir + "." + name
				idle[key] = true
				if _, ok := knobExceptions[key]; !ok {
					t.Errorf("knob %s: no non-test file %s it; delete it, make it a test hook, or give it an entry in knobExceptions", key, lst.what)
				}
			}
		}
	}
	for key := range knobExceptions {
		if !idle[key] {
			t.Errorf("knobExceptions names %s, which is set and read, or gone: drop the entry", key)
		}
	}
}

// TestKnobWalk runs the knob pass on a module built in a temporary
// directory, where every kind of set and read it must tell apart occurs
// once.
func TestKnobWalk(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"a/a.go": `package a

import (
	"encoding/json"
	"errors"
	"net/http"
)

type RunOptions struct {
	Used      int    // set by a literal in cmd, read by Run
	Flagged   string // set only through a flag, read by Run
	BenchSet  int    // set only by bench/, read by Run
	Defaulted int    // read by Run; only its own defaulting sets it
	Checked   int    // set in cmd; only a bound check reads it
	WriteOnly int    // set in cmd, read by nothing
	TestOnly  int    // set by a test, read by Run
}

// ReportConfig's field is read only by encoding/json.
type ReportConfig struct{ Title string }

func Run(o RunOptions) error {
	if o.Defaulted == 0 {
		o.Defaulted = 3
	}
	if o.Checked < 0 {
		return errors.New("negative")
	}
	_ = o.Used + o.BenchSet + o.Defaulted + o.TestOnly + len(o.Flagged)
	return nil
}

func Report(c ReportConfig) ([]byte, error) { return json.Marshal(c) }

// Request is decoded by a handler, which sets its fields; Ignored is
// only re-encoded, which reads nothing.
type Request struct {
	Name    string ` + "`json:\"name\"`" + `
	Ignored int    ` + "`json:\"ignored\"`" + `
}

func Serve(w http.ResponseWriter, r *http.Request) {
	var req Request
	if json.NewDecoder(r.Body).Decode(&req) != nil {
		return
	}
	data, _ := json.Marshal(req)
	w.Header().Set(req.Name, string(data))
}
`,
		"a/a_test.go": `package a

import "testing"

func TestRun(t *testing.T) { _ = Run(RunOptions{TestOnly: 1}) }
`,
		"cmd/main.go": `package main

import (
	"flag"
	"os"

	"fixture/a"
)

func main() {
	n := flag.Int("n", 1, "")
	flag.Bool("dropped", false, "")
	opts := a.RunOptions{Used: *n, Checked: 1}
	flag.StringVar(&opts.Flagged, "flagged", "", "")
	flag.Parse()
	opts.WriteOnly = 2
	os.Getenv("FIXTURE_TITLE") // a second, unread lookup of a read key
	_ = a.Run(opts)
	_, _ = a.Report(a.ReportConfig{Title: os.Getenv("FIXTURE_TITLE")})
}
`,
		"bench/main.go": `package main

import "fixture/a"

func main() { _ = a.Run(a.RunOptions{BenchSet: 1}) }
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
	for dir, want := range map[string]packageSurface{
		"a": {
			Knobs: 10,
			KnobNames: []string{"ReportConfig.Title", "Request.Ignored", "Request.Name",
				"RunOptions.BenchSet", "RunOptions.Checked", "RunOptions.Defaulted", "RunOptions.Flagged",
				"RunOptions.TestOnly", "RunOptions.Used", "RunOptions.WriteOnly"},
			Unset:  []string{"RunOptions.Defaulted", "RunOptions.TestOnly"},
			Unread: []string{"Request.Ignored", "RunOptions.Checked", "RunOptions.WriteOnly"},
		},
		"cmd": {
			Knobs:     4,
			KnobNames: []string{"$FIXTURE_TITLE", "-dropped", "-flagged", "-n"},
			Unread:    []string{"-dropped"},
		},
	} {
		g := got.Packages[dir]
		g.Lines, g.Exported, g.Unreferenced = 0, 0, nil
		if !reflect.DeepEqual(g, want) {
			t.Errorf("%s: knobs\n got %+v\nwant %+v", dir, g, want)
		}
	}
	if _, ok := got.Packages["bench"]; ok {
		t.Error("bench/ is ledgered; it should only count as a caller")
	}
}
