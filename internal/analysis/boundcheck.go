// The boundcheck analyzer. Eq. 2 (τ̂s) and Eq. 4 (γ̂s) bounds are only
// meaningful when (a) the caller notices that the bound was undefined — the
// core methods return an error for unset block sizes precisely so a
// campaign cannot silently compare against 0 — and (b) the arithmetic
// around the comparison preserves the bound's value: converting a signed
// measured quantity to uint64 wraps negatives into astronomically large
// cycles (turning a violated bound into a passing one), and integer
// division truncates toward the optimistic side. core itself computes the
// bounds with exact big.Rat arithmetic; this analyzer holds consumers to
// the same discipline.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// boundMethods are the (*core.System) methods whose (value, error) results
// carry a model bound. VerifyThroughput returns only an error but guards
// the same property (Eq. 5), so dropping it is flagged too.
var boundMethods = map[string]bool{
	"TauHat":             true,
	"TauHatCheckpointed": true,
	"EpsilonHat":         true,
	"GammaHat":           true,
	"GuaranteedRate":     true,
	"VerifyThroughput":   true,
}

// NewBoundCheck builds the bound-discipline analyzer: bound-function errors
// must be checked, and bound comparisons must not wrap signs or truncate.
// In every package it reports bound-method calls whose error result is
// dropped (expression statement, go/defer, or assignment to the blank
// identifier). Outside the defining core package — whose own internals are
// the exact-rational implementation of the bounds — it additionally
// reports, in expressions involving a bound-derived value:
//
//   - integer division (/) applied to a bound-derived operand: cycle
//     arithmetic must round via core's rational ceil helpers, not truncate
//   - signed↔unsigned integer conversions inside a comparison with a
//     bound-derived value: a negative measured value converted to uint64
//     wraps and defeats the comparison
//
// Float discipline around bounds used to live here as a syntactic
// conversion rule; the floatflow analyzer subsumes it with dataflow (a
// float laundered through a local or a helper is caught too), so this
// analyzer keeps only the integer rules.
func NewBoundCheck() *Analyzer {
	a := &Analyzer{
		Name: "boundcheck",
	}
	a.Run = func(pass *Pass) error {
		inCore := isCorePkg(pass.Pkg.Path())
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkBoundsInFunc(pass, fd, inCore)
			}
		}
		return nil
	}
	return a
}

func isCorePkg(path string) bool {
	return path == "core" || strings.HasSuffix(path, "/core")
}

// isBoundCall reports whether call invokes one of the bound methods on
// core.System.
func isBoundCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !boundMethods[fn.Name()] || fn.Pkg() == nil || !isCorePkg(fn.Pkg().Path()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "System"
}

func checkBoundsInFunc(pass *Pass, fd *ast.FuncDecl, inCore bool) {
	// Pass 1: error discipline, and collect bound-derived locals.
	tainted := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isBoundCall(pass, call) {
				pass.Reportf(call.Pos(), "result of bound function %s dropped; its error signals an undefined bound", callName(call))
			}
		case *ast.GoStmt:
			if isBoundCall(pass, n.Call) {
				pass.Reportf(n.Call.Pos(), "bound function %s started with go; its error cannot be checked", callName(n.Call))
			}
		case *ast.DeferStmt:
			if isBoundCall(pass, n.Call) {
				pass.Reportf(n.Call.Pos(), "bound function %s deferred; its error cannot be checked", callName(n.Call))
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isBoundCall(pass, call) {
				return true
			}
			// The error is the last result. Blank means unchecked.
			last := n.Lhs[len(n.Lhs)-1]
			if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(call.Pos(), "error of bound function %s assigned to _; an undefined bound must not default to zero", callName(call))
			}
			// The value result (if bound to a variable) is bound-derived.
			if len(n.Lhs) == 2 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					if obj := objOf(pass, id); obj != nil {
						tainted[obj] = true
					}
				}
			}
		}
		return true
	})

	if inCore {
		return
	}

	derived := func(e ast.Expr) bool { return mentionsBound(pass, e, tainted) }

	// Pass 2: arithmetic discipline around bound-derived values.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.QUO:
			t := pass.Info.Types[be].Type
			if t == nil {
				return true
			}
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				if derived(be.X) || derived(be.Y) {
					pass.Reportf(be.OpPos, "truncating integer division on a bound-derived cycle value; use exact rational or ceil arithmetic")
				}
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			if !derived(be.X) && !derived(be.Y) {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				reportSignWrapConversions(pass, side)
			}
		}
		return true
	})
}

func callName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "call"
}

func objOf(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// mentionsBound reports whether expr contains a direct bound call or a use
// of a bound-derived local.
func mentionsBound(pass *Pass, expr ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBoundCall(pass, n) {
				found = true
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil && tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// reportSignWrapConversions flags T(x) conversions inside one side of a
// bound comparison where T and x disagree on signedness. Non-negative
// constant operands are exempt: uint64(0) cannot wrap.
func reportSignWrapConversions(pass *Pass, expr ast.Expr) {
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := pass.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		dst, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || dst.Info()&types.IsInteger == 0 {
			return true
		}
		argTV := pass.Info.Types[call.Args[0]]
		src, ok := argTV.Type.Underlying().(*types.Basic)
		if !ok || src.Info()&types.IsInteger == 0 {
			return true
		}
		if argTV.Value != nil {
			return true // constant: wrap would be a compile error or provably absent
		}
		dstUnsigned := dst.Info()&types.IsUnsigned != 0
		srcUnsigned := src.Info()&types.IsUnsigned != 0
		if dstUnsigned != srcUnsigned {
			pass.Reportf(call.Pos(),
				"signed/unsigned conversion %s(...) inside a bound comparison; a negative value wraps and defeats the bound", dst.Name())
		}
		return true
	})
}
