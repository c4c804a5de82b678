package accelshare

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"accelshare/internal/analysis"
)

// testOnly lists the packages that only tests may import: the ILP oracle
// and the fixture packages. Their code links into no binary by design.
var testOnly = map[string]bool{
	"accelshare/internal/ilp":                   true,
	"accelshare/internal/analysis/analysistest": true,
	"accelshare/internal/accel/enginetest":      true,
}

// unlinkedAllowed names the production functions that no binary links but
// that stay in production, each with the tests that need it. Only a
// function that tests in other packages call, and that uses its package's
// internals, belongs here; anything else moves into a _test.go file.
var unlinkedAllowed = map[string]string{
	"accelshare/internal/analysis.(*Loader).AddFixtureRoot": "analysistest and TestStaleDirectiveFixture load the fixture packages under testdata/src",
	"accelshare/internal/core.(*System).RelaxationSeed":     "solve's FuzzExactMatchesILPOracle holds the seed below the least fixed point; core's FuzzFixedWidthMatchesBig compares it with the big.Int seed",
	"accelshare/internal/gateway.(*Pair).Paused":            "admission's transition tests and cluster's retry tests check the pause latch after a transition",
	"accelshare/internal/sim.(*Kernel).RunUntil":            "the admission, cluster and gateway tests run a platform to an asynchronous milestone",
}

// TestProductionCodeRuns fails on every non-test function of the module
// that no binary links, and on every non-test file of the module or
// perfbench that imports a test-only package. Reachability is the
// linker's: the binaries of ./cmd/..., ./examples/... and perfbench are
// built with inlining off, so each reachable function keeps its symbol.
// The linker keeps a method whose name matches some interface call, so the
// test can miss such a method but never flags a reachable one.
func TestProductionCodeRuns(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	linked := buildSymbols(t, root)
	decls, importers := parseModule(t, root)
	for _, imp := range importers {
		t.Error(imp)
	}
	if len(decls) < 500 {
		t.Fatalf("parsed only %d declarations under %s; is the module root right?", len(decls), root)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		_, allowed := unlinkedAllowed[d.key]
		switch {
		case linked[d.key] && allowed:
			t.Errorf("%s is linked again; drop it from unlinkedAllowed", d.key)
		case !linked[d.key] && !allowed:
			t.Errorf("%s: %s is linked into no binary; delete it, or move it into a _test.go file", d.pos, d.key)
		}
	}
	for key := range unlinkedAllowed {
		if !declared[key] {
			t.Errorf("unlinkedAllowed names %s, which the module no longer declares", key)
		}
	}
}

// buildSymbols builds every binary with inlining off and returns the
// function symbols they link, keyed by addSymbols.
func buildSymbols(t *testing.T, root string) map[string]bool {
	t.Helper()
	dir := t.TempDir()
	run := func(wd string, args ...string) []byte {
		t.Helper()
		// go test puts its own GOROOT/bin first on the test's PATH.
		cmd := exec.Command("go", args...)
		cmd.Dir = wd
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}
	mains := map[string]string{} // binary name -> main package import path
	for _, p := range strings.Fields(string(run(root, "list", "./cmd/...", "./examples/..."))) {
		mains[path.Base(p)] = p
	}
	run(root, "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	mains["perfbench"] = "accelshare/perfbench"
	run(filepath.Join(root, "perfbench"), "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "perfbench"), ".")
	if len(mains) < 10 {
		t.Fatalf("found %d binaries, want the nine of ./cmd/... and ./examples/... plus perfbench", len(mains))
	}
	linked := map[string]bool{}
	for bin, mainPath := range mains {
		if err := addSymbols(linked, mainPath, run(root, "tool", "nm", filepath.Join(dir, bin))); err != nil {
			t.Fatal(err)
		}
	}
	return linked
}

// addSymbols adds to linked the function symbols of `go tool nm` output
// for a binary whose main package has the import path mainPath. Each key
// is the symbol with its generic shape brackets stripped, and with "main."
// replaced by mainPath, since every binary has a main package of its own.
func addSymbols(linked map[string]bool, mainPath string, nm []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "  4e72e0 T accelshare/internal/core.resize[go.shape.int64]"
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		var b strings.Builder
		depth := 0
		for _, r := range f[2] {
			switch {
			case r == '[':
				depth++
			case r == ']':
				depth--
			case depth == 0:
				b.WriteRune(r)
			}
		}
		sym := b.String()
		if rest, ok := strings.CutPrefix(sym, "main."); ok {
			sym = mainPath + "." + rest
		}
		linked[sym] = true
	}
	return sc.Err()
}

// declKey returns the key of a function declared in the package with the
// given import path: "pkg.F", "pkg.(*T).M" or "pkg.T.M", without type
// parameters.
func declKey(pkg string, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := fd.Recv.List[0].Type
		star, ptr := recv.(*ast.StarExpr)
		if ptr {
			recv = star.X
		}
		switch r := recv.(type) {
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		}
		typ := recv.(*ast.Ident).Name
		if ptr {
			name = "(*" + typ + ")." + name
		} else {
			name = typ + "." + name
		}
	}
	return pkg + "." + name
}

type decl struct {
	key, pos string
}

// parseModule returns every function declared in a non-test file of the
// module outside testdata, nested modules and the test-only packages, and
// a finding for every non-test file of the module or perfbench that
// imports a test-only package.
func parseModule(t *testing.T, root string) (decls []decl, importers []string) {
	t.Helper()
	fset := token.NewFileSet()
	walk := func(modRoot, modPath string, withDecls bool) {
		err := filepath.WalkDir(modRoot, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if p == modRoot {
					return nil
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil ||
					name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			pkg := modPath
			if dir, _ := filepath.Rel(modRoot, filepath.Dir(p)); dir != "." {
				pkg += "/" + filepath.ToSlash(dir)
			}
			if testOnly[pkg] {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if ip, _ := strconv.Unquote(imp.Path.Value); testOnly[ip] {
					importers = append(importers, rel+" imports "+ip+"; only _test.go files may")
				}
			}
			if !withDecls {
				return nil
			}
			for _, dd := range f.Decls {
				if fd, ok := dd.(*ast.FuncDecl); ok && fd.Name.Name != "init" && fd.Name.Name != "_" {
					pos := fset.Position(fd.Pos())
					decls = append(decls, decl{declKey(pkg, fd), rel + ":" + strconv.Itoa(pos.Line)})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	walk(root, "accelshare", true)
	walk(filepath.Join(root, "perfbench"), "accelshare/perfbench", false)
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	return decls, importers
}

// TestProductionCodeRunsSymbolNames pins the declaration-to-symbol mapping
// that TestProductionCodeRuns relies on.
func TestProductionCodeRunsSymbolNames(t *testing.T) {
	const lib = "accelshare/internal/p"
	for _, tc := range []struct {
		name, pkg, decl string
		nm              map[string]string // main package import path -> nm output
		linked          bool
	}{
		{"package function", lib, "func F() {}",
			map[string]string{"accelshare/cmd/a": "  401000 T accelshare/internal/p.F"}, true},
		{"package function under a longer name", lib, "func F() {}",
			map[string]string{"accelshare/cmd/a": "  401000 T accelshare/internal/p.FF"}, false},
		{"pointer receiver", lib, "func (t *T) M() {}",
			map[string]string{"accelshare/cmd/a": "  401000 T accelshare/internal/p.(*T).M"}, true},
		{"value receiver", lib, "func (t T) M() {}",
			map[string]string{"accelshare/cmd/a": "  401000 t accelshare/internal/p.T.M"}, true},
		{"generic function", lib, "func G[E any](e E) {}",
			map[string]string{"accelshare/cmd/a": "  401000 T accelshare/internal/p.G[go.shape.struct { X []int; Y map[string]int }]"}, true},
		{"method of a generic type", lib, "func (s *Set[K, V]) Add(k K) {}",
			map[string]string{"accelshare/cmd/a": "  401000 T accelshare/internal/p.(*Set[go.shape.int,go.shape.[]string]).Add"}, true},
		{"value method of a generic type", lib, "func (s Pair[K]) Get() {}",
			map[string]string{"accelshare/cmd/a": "  401000 T accelshare/internal/p.Pair[go.shape.int].Get"}, true},
		{"data symbol", lib, "func F() {}",
			map[string]string{"accelshare/cmd/a": "  501000 D accelshare/internal/p.F\n           U accelshare/internal/p.F"}, false},
		{"main function of its own binary", "accelshare/cmd/a", "func run() {}",
			map[string]string{"accelshare/cmd/a": "  401000 T main.run", "accelshare/cmd/b": "  401000 T main.main"}, true},
		{"main function of another binary", "accelshare/cmd/b", "func run() {}",
			map[string]string{"accelshare/cmd/a": "  401000 T main.run", "accelshare/cmd/b": "  401000 T main.main"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parser.ParseFile(token.NewFileSet(), "p.go", "package p\n"+tc.decl, 0)
			if err != nil {
				t.Fatal(err)
			}
			linked := map[string]bool{}
			for mainPath, nm := range tc.nm {
				if err := addSymbols(linked, mainPath, []byte(nm)); err != nil {
					t.Fatal(err)
				}
			}
			key := declKey(tc.pkg, f.Decls[0].(*ast.FuncDecl))
			if linked[key] != tc.linked {
				t.Errorf("%s: linked = %v, want %v (symbols %v)", key, linked[key], tc.linked, linked)
			}
		})
	}
}

// fieldAllowed names the exported fields that TestProductionFieldsAreUsed
// flags but that stay, each with the rule it breaks and who needs it. An
// entry the census no longer flags under its rule fails the test.
var fieldAllowed = map[string]fieldException{
	"accelshare/internal/mpsoc.MultiConfig.RecordOutputTimes": {1, "TestPerTokenRefinement, TestPerSampleLatencyBound and TestStagedExitPinned need per-word exit times, and no production path records them"},
	"accelshare/internal/solve.Exact.ILPStreamCap":            {2, "perfbench sets it (perfbench/workloads.go); the benchmark change that stops setting it deletes it"},
}

type fieldException struct {
	rule int
	who  string
}

// TestProductionFieldsAreUsed is the field census. It type-checks the
// module and perfbench and fails on every exported field of a non-test
// struct that
//
//  1. non-test code reads but never sets: an option only tests set, or
//  2. nothing reads, tests included: dead state.
//
// A field is set by a composite-literal key or positional element, an
// assignment or inc/dec target, &x.F, and a pointer-method call on an
// addressable field; the last two read it as well. A zero-value default in
// the field's own package, x.F = k in the body of if x.F == 0 (or <= 0,
// == nil, == ""), fills in what the caller left unset and so sets nothing.
// Every other selector reads the field. A whole-struct == reads every
// field, and so does a struct handed to fmt or encoding/json (which may
// also set them); a struct-tagged field counts as read. Test files are
// parsed, not type-checked: a selector in one reads every field of that
// name, so a test can hide a rule-2 finding but never make one. Embedded
// fields are not counted.
func TestProductionFieldsAreUsed(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	// AddModule registers perfbench too: it walks into the nested module.
	l := analysis.NewLoader()
	if err := l.AddModule(root, "accelshare"); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(l.Paths(), "accelshare/perfbench") {
		t.Fatal("the loader did not register perfbench")
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	findings := fieldCensus(l.Fset, pkgs, parseTestFiles(t, l.Fset, root))
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].pos.Filename); err == nil {
			findings[i].pos.Filename = rel
		}
	}
	for _, msg := range fieldErrors(findings, fieldAllowed) {
		t.Error(msg)
	}
}

// fieldErrors returns one message per finding that allowed does not name
// under its rule, and one per entry of allowed that no finding matches.
func fieldErrors(findings []fieldFinding, allowed map[string]fieldException) []string {
	var msgs []string
	flagged := map[string]int{}
	for _, f := range findings {
		flagged[f.key] = f.rule
		if ex, ok := allowed[f.key]; ok && ex.rule == f.rule {
			continue
		}
		switch f.rule {
		case 1:
			msgs = append(msgs, f.pos.String()+": "+f.key+" is read but only tests set it; give it a production setter, delete it, or move its job into the test")
		case 2:
			msgs = append(msgs, f.pos.String()+": "+f.key+" is read by nothing, tests included; delete it")
		}
	}
	keys := make([]string, 0, len(allowed))
	for key := range allowed {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if rule := allowed[key].rule; flagged[key] != rule {
			msgs = append(msgs, "fieldAllowed names "+key+" under rule "+strconv.Itoa(rule)+", which the census no longer flags; drop it")
		}
	}
	return msgs
}

// fieldUse is what the census learns of one exported field.
type fieldUse struct {
	key, name     string
	pos           token.Pos
	read, written bool // by non-test code
	testRead      bool // by a test-only package
}

// fieldFinding is one field that breaks rule 1 or rule 2.
type fieldFinding struct {
	key  string
	pos  token.Position
	rule int
}

// fieldCensus counts the reads and writes of every exported field that a
// struct of a non-test package declares, over the type-checked pkgs and
// the parsed test files, and returns the fields that break a rule, sorted
// by key.
func fieldCensus(fset *token.FileSet, pkgs []*analysis.Package, testFiles []*ast.File) []fieldFinding {
	fields := map[*types.Var]*fieldUse{}
	for _, p := range pkgs {
		if testOnly[p.Path] {
			continue
		}
		for _, f := range p.Files {
			named := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						named[st] = n.Name.Name
					}
				case *ast.StructType:
					owner, ok := named[n]
					if !ok {
						owner = "struct{}"
					}
					for _, fl := range n.Fields.List {
						for _, id := range fl.Names {
							if v, ok := p.Info.Defs[id].(*types.Var); ok && id.IsExported() {
								fields[v] = &fieldUse{key: p.Path + "." + owner + "." + id.Name, name: id.Name, pos: id.Pos(), read: fl.Tag != nil}
							}
						}
					}
				}
				return true
			})
		}
	}
	for _, p := range pkgs {
		test := testOnly[p.Path]
		mark := func(v *types.Var, read, write bool) {
			switch u := fields[v.Origin()]; {
			case u == nil:
			case test:
				u.testRead = u.testRead || read
			default:
				u.read = u.read || read
				u.written = u.written || write
			}
		}
		for _, f := range p.Files {
			censusFile(p.Path, p.Info, f, mark)
		}
	}
	testReads := map[string]bool{}
	for _, f := range testFiles {
		targets := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						targets[s] = true
					}
				}
			case *ast.IncDecStmt:
				if s, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					targets[s] = true
				}
			case *ast.SelectorExpr:
				if !targets[n] {
					testReads[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	var out []fieldFinding
	for _, u := range fields {
		switch {
		case u.read && !u.written:
			out = append(out, fieldFinding{u.key, fset.Position(u.pos), 1})
		case !u.read && !u.testRead && !testReads[u.name]:
			out = append(out, fieldFinding{u.key, fset.Position(u.pos), 2})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// censusFile hands mark every field read and write of one type-checked
// file of the package path.
func censusFile(path string, info *types.Info, f *ast.File, mark func(v *types.Var, read, write bool)) {
	writeOnly := map[*ast.SelectorExpr]bool{}
	// defaults holds the targets of the file's zero-value defaults.
	defaults := map[ast.Expr]bool{}
	// target marks what an assignment, inc/dec or address reaches through
	// e as set: the selected field and, while the path runs through values
	// rather than pointers, the struct fields and arrays holding it.
	target := func(e ast.Expr, read bool) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				s := info.Selections[x]
				if s == nil || s.Kind() != types.FieldVal {
					return
				}
				mark(s.Obj().(*types.Var), read, true)
				writeOnly[x] = !read
				if s.Indirect() {
					return
				}
				e = x.X
			case *ast.IndexExpr:
				if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); !ok {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	readAll := func(t types.Type, ptrs, write bool) {
		reachFields(t, ptrs, map[types.Type]bool{}, func(v *types.Var) { mark(v, true, write) })
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if x := zeroTest(info, n.Cond); x != nil && info.Selections[x].Obj().Pkg().Path() == path {
				for _, st := range n.Body.List {
					if a, ok := st.(*ast.AssignStmt); ok && a.Tok == token.ASSIGN && len(a.Lhs) == 1 &&
						types.ExprString(a.Lhs[0]) == types.ExprString(x) {
						defaults[a.Lhs[0]] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, e := range n.Lhs {
					if !defaults[e] {
						target(e, false)
					}
				}
			}
		case *ast.IncDecStmt:
			target(n.X, false)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X, true)
			}
		case *ast.SelectorExpr:
			// A pointer method of an addressable value takes its address.
			if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrX := info.TypeOf(n.X).Underlying().(*types.Pointer)
				if ptrRecv && !ptrX {
					target(n.X, true)
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						mark(v, false, true)
					}
				} else {
					mark(st.Field(i), false, true)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				readAll(info.TypeOf(n.X), false, false)
			}
		case *ast.CallExpr:
			switch calleePkg(info, n.Fun) {
			case "fmt":
				// fmt prints through the outermost pointer only.
				for _, a := range n.Args {
					t := info.TypeOf(a)
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					readAll(t, false, false)
				}
			case "encoding/json":
				for _, a := range n.Args {
					readAll(info.TypeOf(a), true, true)
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if x, ok := n.(*ast.SelectorExpr); ok && !writeOnly[x] {
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				mark(s.Obj().(*types.Var), true, false)
			}
		}
		return true
	})
}

// zeroTest returns x.F when cond compares a field F with its zero value
// (x.F == 0, <= 0, == nil or == ""), and nil otherwise.
func zeroTest(info *types.Info, cond ast.Expr) *ast.SelectorExpr {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.EQL && b.Op != token.LEQ) {
		return nil
	}
	x, ok := ast.Unparen(b.X).(*ast.SelectorExpr)
	if !ok || info.Selections[x] == nil || info.Selections[x].Kind() != types.FieldVal {
		return nil
	}
	tv := info.Types[b.Y]
	switch v := tv.Value; {
	case tv.IsNil():
		return x
	case v == nil:
		return nil
	case v.Kind() == constant.String:
		if constant.StringVal(v) == "" {
			return x
		}
	case v.Kind() == constant.Int || v.Kind() == constant.Float:
		if constant.Sign(v) == 0 {
			return x
		}
	}
	return nil
}

// reachFields calls visit on every field of every struct reachable from t
// by value: through arrays, slices, maps and struct fields, and through
// pointers too when ptrs is set.
func reachFields(t types.Type, ptrs bool, seen map[types.Type]bool, visit func(*types.Var)) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if ptrs {
			reachFields(u.Elem(), ptrs, seen, visit)
		}
	case *types.Slice:
		reachFields(u.Elem(), ptrs, seen, visit)
	case *types.Array:
		reachFields(u.Elem(), ptrs, seen, visit)
	case *types.Map:
		reachFields(u.Key(), ptrs, seen, visit)
		reachFields(u.Elem(), ptrs, seen, visit)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			visit(u.Field(i))
			reachFields(u.Field(i).Type(), ptrs, seen, visit)
		}
	}
}

// calleePkg returns the import path of the package declaring the function
// or method fun calls, or "" for anything else.
func calleePkg(info *types.Info, fun ast.Expr) string {
	var id *ast.Ident
	switch f := ast.Unparen(fun).(type) {
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.Ident:
		id = f
	default:
		return ""
	}
	if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
		return fn.Pkg().Path()
	}
	return ""
}

// parseTestFiles parses every _test.go file of the module and perfbench,
// testdata excluded.
func parseTestFiles(t *testing.T, fset *token.FileSet, root string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestFieldCensusRules runs the field census over fixture packages: a
// production file p.go and, where a case has one, a test file p_test.go.
func TestFieldCensusRules(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, tc := range []struct {
		name, src, test string
		want            []string
	}{
		{"an option read but never set", `
type Config struct{ Verbose bool; N int }
func Run(c Config) int { if c.Verbose { return c.N }; return 0 }
func Default() int { return Run(Config{N: 1}) }`,
			`func TestRun() { Run(Config{Verbose: true}) }`,
			[]string{"p.Config.Verbose rule 1"}},
		{"a field set but never read", `
type Stats struct{ Hits, Misses int }
func Count(s *Stats) int { s.Hits = 1; s.Misses = 2; return s.Hits }`,
			"", []string{"p.Stats.Misses rule 2"}},
		{"a test read hides only rule 2", `
type R struct{ A, B int }
func New() R { return R{A: 1, B: 2} }`,
			`func TestNew() { _ = New().A }`,
			[]string{"p.R.B rule 2"}},
		{"a positional literal", `
type P struct{ X, Y int }
func New() P { return P{1, 2} }
func Sum(p P) int { return p.X + p.Y }`,
			"", nil},
		{"&x.F", `
type C struct{ N int }
func Set(c *C) { p := &c.N; *p = 3 }
func Get(c C) int { return c.N }`,
			"", nil},
		{"x.F++", `
type K struct{ Seen, Dropped int }
func Tick(k *K) int { k.Seen++; k.Dropped--; return k.Seen }`,
			"", []string{"p.K.Dropped rule 2"}},
		{"a pointer-method call on a field", `
type ctr struct{ n int }
func (c *ctr) inc() { c.n++ }
func (c ctr) get() int { return c.n }
type T struct{ Ctr ctr }
func Use(t *T) int { t.Ctr.inc(); return t.Ctr.get() }
type U struct{ Ref *ctr }
func Bump(u U) { u.Ref.inc() }`,
			"", []string{"p.U.Ref rule 1"}},
		{"a zero-value default sets nothing", `
type Config struct{ Depth, Rate int; Name string; Next *Config }
func New(c Config) int {
	if c.Depth == 0 { c.Depth = 4 }
	if c.Rate <= 0 { c.Rate = 1 }
	if c.Name == "" { c.Name = "p" }
	if c.Next == nil { c.Next = &c }
	return c.Depth + c.Rate + len(c.Name) + c.Next.Depth
}
func Default() int { return New(Config{Depth: 2}) }`,
			`func TestNew() { New(Config{Rate: 3, Name: "t", Next: &Config{}}) }`,
			[]string{"p.Config.Name rule 1", "p.Config.Next rule 1", "p.Config.Rate rule 1"}},
		{"a whole-struct ==", `
type Key struct{ A, B int }
func Same(k Key) bool { return k == Key{1, 2} }`,
			"", nil},
		{"a json-tagged field", `
type Out struct {
	N int ` + "`json:\"n\"`" + `
	M int
}
func Emit() Out { return Out{N: 1, M: 2} }`,
			"", []string{"p.Out.M rule 2"}},
		{"a struct handed to fmt or encoding/json", `
import ("encoding/json"; "fmt")
type Row struct{ Name string; Next *Row }
func Print() string { return fmt.Sprint(Row{Name: "a", Next: nil}) }
type In struct{ A int }
func Parse(b []byte) (int, error) { var in In; err := json.Unmarshal(b, &in); return in.A, err }`,
			"", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parser.ParseFile(fset, "p.go", "package p\n"+tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			if _, err := (&types.Config{Importer: imp}).Check("p", fset, []*ast.File{f}, info); err != nil {
				t.Fatal(err)
			}
			var tests []*ast.File
			if tc.test != "" {
				tf, err := parser.ParseFile(fset, "p_test.go", "package p\n"+tc.test, 0)
				if err != nil {
					t.Fatal(err)
				}
				tests = append(tests, tf)
			}
			var got []string
			for _, fd := range fieldCensus(fset, []*analysis.Package{{Path: "p", Files: []*ast.File{f}, Info: info}}, tests) {
				got = append(got, fd.key+" rule "+strconv.Itoa(fd.rule))
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("findings %q, want %q", got, tc.want)
			}
		})
	}
}

// TestFieldAllowlist pins how the census findings meet the allowlist: an
// entry hides its finding under its own rule only, and an entry that hides
// nothing is stale.
func TestFieldAllowlist(t *testing.T) {
	findings := []fieldFinding{
		{key: "p.A.X", rule: 1},
		{key: "p.B.Y", rule: 2},
	}
	for _, tc := range []struct {
		name    string
		allowed map[string]fieldException
		want    int
	}{
		{"no entries", nil, 2},
		{"both allowed", map[string]fieldException{"p.A.X": {1, "t"}, "p.B.Y": {2, "t"}}, 0},
		{"an entry under the other rule", map[string]fieldException{"p.A.X": {2, "t"}, "p.B.Y": {2, "t"}}, 2},
		{"a stale entry", map[string]fieldException{"p.A.X": {1, "t"}, "p.B.Y": {2, "t"}, "p.C.Z": {1, "t"}}, 1},
	} {
		if got := fieldErrors(findings, tc.allowed); len(got) != tc.want {
			t.Errorf("%s: %d errors %q, want %d", tc.name, len(got), got, tc.want)
		}
	}
}
