// The determinism analyzer. Campaign subcommands promise byte-identical
// output for identical scripts (golden files diff the whole artifact), and
// the simulator's event order is part of the model being validated — so the
// packages that feed output, traces, golden files or campaign emitters must
// not consult the wall clock, the process-global random source, or Go's
// randomized map iteration order. The 8 pre-existing ad-hoc sort.Slice call
// sites (trace rows, usage listing, remainder ordering, ...) are the
// pattern this rule generalizes: map iteration must pass through an
// explicit sort before it can influence anything observable.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismCovered is the default coverage predicate: the packages whose
// behavior reaches campaign output, golden files or recorded traces.
func DeterminismCovered(path string) bool {
	for _, p := range []string{
		"accelshare/internal/sim",
		"accelshare/internal/trace",
		"accelshare/internal/conformance",
		"accelshare/internal/gateway",
		"accelshare/internal/mpsoc",
		"accelshare/internal/admission",
		"accelshare/internal/fault",
		"accelshare/internal/cluster",
		"accelshare/internal/solve",
		"accelshare/internal/campaign",
		"accelshare/cmd/accelshare",
	} {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// NewDeterminism builds the determinism analyzer, which forbids wall-clock
// reads, global math/rand and order-observing map iteration in
// output-feeding packages. Coverage is a predicate over package import
// paths (nil means DeterminismCovered). Within covered packages it reports:
//
//   - calls to time.Now / time.Since / time.Until — wall-clock reads; the
//     simulator's sim.Time cycle clock is the only clock
//   - calls to math/rand (and math/rand/v2) package-level functions, which
//     draw from the process-global source; a locally seeded *rand.Rand via
//     rand.New(rand.NewSource(seed)) is fine
//   - range statements over maps, unless the loop body provably cannot
//     observe order (it only collects keys/values into slices via
//     x = append(x, ...), only writes other maps / deletes keys, or only
//     bumps integer counters), or the statement carries an
//     //accellint:unordered directive stating why order cannot matter
//
// The sorted-keys idiom (collect, sort.Strings/Ints/Slice, iterate the
// slice) therefore passes: the collection loop is order-insensitive and
// the ordered iteration ranges over a slice.
func NewDeterminism(cover func(pkgPath string) bool) *Analyzer {
	if cover == nil {
		cover = DeterminismCovered
	}
	a := &Analyzer{
		Name: "determinism",
	}
	a.Run = func(pass *Pass) error {
		if !cover(pass.Pkg.Path()) {
			return nil
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkDeterminismCall(pass, n)
				case *ast.RangeStmt:
					checkMapRange(pass, file, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// globalRandAllowed lists math/rand functions that do NOT touch the global
// source: constructors for explicitly seeded generators.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s in a determinism-covered package; the sim cycle clock is the only clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions use the process-global source;
		// methods on *rand.Rand have an explicit, caller-seeded source.
		if fn.Type().(*types.Signature).Recv() == nil && !globalRandAllowed[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global rand.%s in a determinism-covered package; use a rand.New(rand.NewSource(seed)) local to the campaign", fn.Name())
		}
	}
}

func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.Info.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if mapRangeBodyOrderInsensitive(pass, rng.Body) {
		// Order-insensitive loops need no directive; checking the body first
		// means an unordered directive on such a loop stays un-consumed and
		// is reported as stale instead of silently tolerated.
		return
	}
	if pass.LineDirective(file, rng.Pos(), "unordered") {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order can reach observable output; iterate a sorted key slice or annotate //accellint:unordered with a reason")
}

// mapRangeBodyOrderInsensitive reports whether every statement of a map
// range body is one of the shapes whose net effect cannot depend on
// iteration order:
//
//	keys = append(keys, ...)   collecting into a slice to be sorted
//	m[...] = ...               writing another map (incl. op-assign)
//	delete(m, ...)             deleting keys
//	n++ / n-- / n += <int>     commutative integer aggregation
//
// Anything else — returns, conditionals, calls, float accumulation, slice
// element writes — is conservatively treated as order-observing.
func mapRangeBodyOrderInsensitive(pass *Pass, body *ast.BlockStmt) bool {
	for _, st := range body.List {
		switch st := st.(type) {
		case *ast.AssignStmt:
			if !orderInsensitiveAssign(pass, st) {
				return false
			}
		case *ast.IncDecStmt:
			if _, ok := st.X.(*ast.Ident); !ok {
				return false
			}
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call.Fun, "delete") {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func orderInsensitiveAssign(pass *Pass, st *ast.AssignStmt) bool {
	switch st.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		switch lhs := st.Lhs[0].(type) {
		case *ast.Ident:
			// x = append(x, ...): pure collection, order fixed later by an
			// explicit sort before anything observes it.
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
				return false
			}
			base, ok := call.Args[0].(*ast.Ident)
			return ok && base.Name == lhs.Name
		case *ast.IndexExpr:
			// m[k] = v: map writes commute across distinct keys, and range
			// visits each key once.
			xt := pass.Info.Types[lhs.X].Type
			if xt == nil {
				return false
			}
			_, isMap := xt.Underlying().(*types.Map)
			return isMap
		}
		return false
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Integer aggregation commutes; float accumulation does not.
		lt := pass.Info.Types[st.Lhs[0]].Type
		if lt == nil {
			return false
		}
		b, ok := lt.Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsInteger == 0 {
			return false
		}
		if _, ok := st.Lhs[0].(*ast.Ident); !ok {
			if idx, ok := st.Lhs[0].(*ast.IndexExpr); ok {
				xt := pass.Info.Types[idx.X].Type
				if xt == nil {
					return false
				}
				_, isMap := xt.Underlying().(*types.Map)
				return isMap
			}
			return false
		}
		return true
	}
	return false
}

func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.Info.Uses[id].(*types.Builtin)
	return ok
}
