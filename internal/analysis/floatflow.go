// The floatflow analyzer: verify-don't-trust, enforced by dataflow. Every
// real-time guarantee rests on exact integer and big.Rat arithmetic. A
// float value (a report share, a rate estimate) that reaches a bound
// comparison, a recorded bound field or a byte-deterministic campaign
// transcript silently converts rounding error into a "proven" real-time
// property. TaintFloat marks every value derived from float arithmetic —
// through locals, helpers, integer rounding and struct fields —
// TaintBound marks every value derived from a model bound, and the two
// must never meet unless the float-derived candidate passed through
// solve.Verify, the exact re-check.
//
// Sinks:
//
//   - a comparison whose operands carry both TaintFloat and TaintBound
//   - a store of a float-derived value into a bound-carrying field (Bound,
//     *Bound, or the StreamBounds TauHat/GammaHat fields)
//   - a float-derived argument to a fmt print call inside a function marked
//     //accellint:transcript (the byte-deterministic campaign emitters)
//
// Sanctioned flows are suppressed with //accellint:floatflow <reason> on
// the finding's line. The defining core package is exempt: its internals
// implement the bounds.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// boundFieldNames are the exact field names that carry a model bound in
// recorded artifacts: LadderStep.Bound, conformance.StreamBounds.TauHat /
// GammaHat. The "Bound" suffix rule below catches ReplayBound-style names.
var boundFieldNames = map[string]bool{"Bound": true, "TauHat": true, "GammaHat": true}

func isBoundField(name string) bool {
	return boundFieldNames[name] || strings.HasSuffix(name, "Bound")
}

// NewFloatFlow builds the float-taint analyzer: float-derived values must
// not reach bound comparisons, bound fields or campaign transcripts without
// solve.Verify.
func NewFloatFlow() *Analyzer {
	a := &Analyzer{
		Name: "floatflow",
	}
	a.Run = func(pass *Pass) error {
		if isCorePkg(pass.Pkg.Path()) {
			return nil
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFloatFlow(pass, file, fd)
			}
		}
		return nil
	}
	return a
}

var floatFlowConfig = FlowConfig{
	Source:    floatFlowSource,
	Transfer:  floatFlowTransfer,
	Sanitizes: floatFlowSanitizes,
	FieldRead: floatFlowFieldRead,
}

// floatFlowFieldRead drops TaintFloat at reads of integer-typed fields: a
// measured cycle counter inside a report struct that also carries float
// shares is not itself float-derived. Laundering a float through an
// explicit conversion (int64(f)) still taints — conversions pass taint
// unconditionally; only the struct-granularity over-approximation is
// masked here.
func floatFlowFieldRead(f *Flow, sel *ast.SelectorExpr, container Taint) Taint {
	v, ok := f.Pass.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return container
	}
	if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
		return container &^ TaintFloat
	}
	return container
}

// floatFlowSource introduces TaintFloat at every non-constant float-typed
// expression and TaintBound at bound-method calls and bound-field reads.
func floatFlowSource(pass *Pass, e ast.Expr) Taint {
	var t Taint
	if tv, ok := pass.Info.Types[e]; ok && tv.Type != nil {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			t |= TaintFloat
		}
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		if isBoundCall(pass, x) {
			t |= TaintBound
		}
	case *ast.SelectorExpr:
		if v, ok := pass.Info.Uses[x.Sel].(*types.Var); ok && v.IsField() && isBoundField(v.Name()) {
			t |= TaintBound
		}
	}
	return t
}

// floatFlowTransfer keeps the conservative argument-union default except at
// the sanitizer itself: solve.Verify's result is the exact verdict, clean
// by construction.
func floatFlowTransfer(f *Flow, call *ast.CallExpr, args Taint) Taint {
	if isSolveVerifyCall(f.Pass, call) {
		return 0
	}
	return args
}

// floatFlowSanitizes trusts every argument of a solve.Verify call: the
// candidate blocks it re-verified exactly may meet bounds afterwards.
func floatFlowSanitizes(pass *Pass, call *ast.CallExpr) []ast.Expr {
	if !isSolveVerifyCall(pass, call) {
		return nil
	}
	return call.Args
}

// isSolveVerifyCall matches solve.Verify — the exact re-verification gate —
// by function name and defining package suffix, so the fixture stub package
// "solve" binds to the same rule as the real module path.
func isSolveVerifyCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Verify" || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == "solve" || strings.HasSuffix(p, "/solve")
}

func checkFloatFlow(pass *Pass, file *ast.File, fd *ast.FuncDecl) {
	flow := NewFlow(pass, fd, floatFlowConfig)
	_, transcript := pass.DocDirective(fd.Doc, "transcript")

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				// Only numeric comparisons can check a bound; err != nil on a
				// bound call's error is the correct discipline, not a sink.
				if !isNumericExpr(pass, n.X) || !isNumericExpr(pass, n.Y) {
					return true
				}
				t := flow.ExprTaint(n.X) | flow.ExprTaint(n.Y)
				if t&TaintFloat != 0 && t&TaintBound != 0 {
					if !pass.LineDirective(file, n.OpPos, "floatflow") {
						pass.Reportf(n.OpPos,
							"float-derived value reaches a bound comparison without exact re-verification; round the candidate and pass it through solve.Verify first")
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
				if !ok || !v.IsField() || !isBoundField(v.Name()) {
					continue
				}
				if flow.ExprTaint(n.Rhs[i])&TaintFloat != 0 {
					if !pass.LineDirective(file, n.Rhs[i].Pos(), "floatflow") {
						pass.Reportf(n.Rhs[i].Pos(),
							"float-derived value stored into bound field %s; recorded bounds must come from exact arithmetic", v.Name())
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !isBoundField(key.Name) {
					continue
				}
				if _, isStruct := typeUnder(pass, n).(*types.Struct); !isStruct {
					continue
				}
				if flow.ExprTaint(kv.Value)&TaintFloat != 0 {
					if !pass.LineDirective(file, kv.Value.Pos(), "floatflow") {
						pass.Reportf(kv.Value.Pos(),
							"float-derived value stored into bound field %s; recorded bounds must come from exact arithmetic", key.Name)
					}
				}
			}
		case *ast.CallExpr:
			if !transcript || !isFmtPrintCall(pass, n) {
				return true
			}
			for _, arg := range n.Args {
				if flow.ExprTaint(arg)&TaintFloat != 0 {
					if !pass.LineDirective(file, arg.Pos(), "floatflow") {
						pass.Reportf(arg.Pos(),
							"float-derived value written to a byte-deterministic campaign transcript; emit exact integers or rationals instead")
					}
				}
			}
		}
		return true
	})
}

// isFmtPrintCall matches the fmt print family (Print/Printf/Println and the
// F/S variants) — the way transcript emitters write.
func isFmtPrintCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	return strings.HasPrefix(strings.TrimPrefix(strings.TrimPrefix(fn.Name(), "F"), "S"), "Print")
}

func isNumericExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

func typeUnder(pass *Pass, e ast.Expr) types.Type {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type.Underlying()
}
