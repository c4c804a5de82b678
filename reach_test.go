package accelshare

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
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
