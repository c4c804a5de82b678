// The intraprocedural dataflow engine behind the taint-style analyzers
// (floatflow, ratalias). The PR-5 analyzers are syntactic: they look at one
// expression at a time, so a value laundered through a local variable or a
// helper call escapes them. This engine computes, per function, which local
// objects can carry which taint labels — forward propagation over the typed
// AST through assignments, short variable declarations, composite literals,
// call arguments/results, range statements and field/index reads — and
// answers taint queries for arbitrary expressions against that fixpoint.
//
// The analysis is deliberately flow-INSENSITIVE: instead of building a CFG
// it iterates the propagation over the whole body until nothing changes,
// which is exactly the conservative merge at every control-flow join (a
// value tainted on any path is tainted after the join, and loop-carried
// flows are closed by the fixpoint). Taint only ever grows, so the
// iteration terminates in at most |objects| × |labels| rounds.
//
// Sanitizers cut the other way: an object named in a sanitizing call (the
// solve.Verify exact re-verification) is trusted for the whole function —
// its stored taint is masked at every read. Flow-insensitivity makes this
// an over-approximation of trust in one direction and of taint in the
// other; both err toward the review-the-suppression side the suite already
// takes everywhere else.

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Taint is a bitset of dataflow labels.
type Taint uint8

const (
	// TaintFloat marks values derived from float32/float64 arithmetic —
	// anything downstream of a float expression, through conversions,
	// helpers and integer rounding alike.
	TaintFloat Taint = 1 << iota
	// TaintBound marks values derived from a model bound (a core bound
	// method result or a *Bound struct field).
	TaintBound
	// TaintParam marks values that may alias memory owned by the caller
	// (parameters and everything reachable from them).
	TaintParam
)

// FlowConfig configures one taint analysis over one function body.
type FlowConfig struct {
	// Source returns the taint an expression introduces by itself,
	// independent of its operands (e.g. "any non-constant float-typed
	// expression carries TaintFloat"). May be nil.
	Source func(pass *Pass, e ast.Expr) Taint
	// Transfer maps a non-conversion call to its result taint, given the
	// union of the taints of its arguments (receiver included). Nil means
	// the conservative default: results carry the argument union.
	Transfer func(f *Flow, call *ast.CallExpr, args Taint) Taint
	// Sanitizes returns the expressions a call exactly re-verifies. The
	// plain identifiers among them are trusted for the whole function.
	Sanitizes func(pass *Pass, call *ast.CallExpr) []ast.Expr
	// FieldRead maps the container's taint to the taint a field read (x.f)
	// yields. Nil means the conservative default: the read carries the full
	// container taint. Analyzers use this to drop labels a field's own type
	// cannot embody (floatflow: an integer field of a float-carrying
	// struct).
	FieldRead func(f *Flow, sel *ast.SelectorExpr, container Taint) Taint
}

// Flow is the per-function fixpoint: object taints plus the sanitized set.
type Flow struct {
	Pass *Pass
	cfg  FlowConfig
	obj  map[types.Object]Taint
	san  map[types.Object]bool
}

// NewFlow computes the taint fixpoint over fd's body.
func NewFlow(pass *Pass, fd *ast.FuncDecl, cfg FlowConfig) *Flow {
	f := &Flow{Pass: pass, cfg: cfg, obj: map[types.Object]Taint{}, san: map[types.Object]bool{}}
	if fd.Body == nil {
		return f
	}
	// Sanitized objects first: they must never accumulate taint, so the
	// propagation below masks them from the start.
	if cfg.Sanitizes != nil {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, e := range cfg.Sanitizes(pass, call) {
				if id, ok := unparen(e).(*ast.Ident); ok {
					if obj := objOf(pass, id); obj != nil {
						f.san[obj] = true
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				changed = f.propagateAssign(n) || changed
			case *ast.DeclStmt:
				gd, ok := n.Decl.(*ast.GenDecl)
				if !ok {
					return true
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							changed = f.taintObjIdent(name, f.ExprTaint(vs.Values[i])) || changed
						}
					}
				}
			case *ast.RangeStmt:
				t := f.ExprTaint(n.X)
				if id, ok := n.Key.(*ast.Ident); ok {
					// Over a slice, array or string the key is a synthesized
					// integer position, not data drawn from the container —
					// only map keys (and channel elements) carry its taint.
					kt := t
					if rt, ok := f.Pass.Info.Types[n.X]; ok && rt.Type != nil {
						switch rt.Type.Underlying().(type) {
						case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
							kt = 0
						}
					}
					changed = f.taintObjIdent(id, kt) || changed
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					changed = f.taintObjIdent(id, t) || changed
				}
			}
			return true
		})
	}
	return f
}

// propagateAssign moves taint from each RHS into the object rooting each
// LHS. A store into a field or element taints the whole container object:
// the engine does not track per-field taint, so x.f = tainted makes every
// later read of x (and x.g) tainted — conservative, never unsound for the
// reachability questions the analyzers ask.
func (f *Flow) propagateAssign(as *ast.AssignStmt) bool {
	changed := false
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		// Tuple assignment from one call/comma-ok: every LHS gets the RHS
		// expression's taint.
		t := f.ExprTaint(as.Rhs[0])
		for _, lhs := range as.Lhs {
			changed = f.taintLHS(lhs, t) || changed
		}
		return changed
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		t := f.ExprTaint(as.Rhs[i])
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// Op-assign (+=, *=, ...): the old value participates.
			t |= f.ExprTaint(lhs)
		}
		changed = f.taintLHS(lhs, t) || changed
	}
	return changed
}

// taintLHS adds taint to the object rooting an assignment target.
func (f *Flow) taintLHS(lhs ast.Expr, t Taint) bool {
	if t == 0 {
		return false
	}
	for {
		switch l := lhs.(type) {
		case *ast.Ident:
			return f.taintObjIdent(l, t)
		case *ast.SelectorExpr:
			lhs = l.X
		case *ast.IndexExpr:
			lhs = l.X
		case *ast.StarExpr:
			lhs = l.X
		case *ast.ParenExpr:
			lhs = l.X
		default:
			return false
		}
	}
}

func (f *Flow) taintObjIdent(id *ast.Ident, t Taint) bool {
	if t == 0 || id.Name == "_" {
		return false
	}
	obj := objOf(f.Pass, id)
	if obj == nil || f.san[obj] {
		return false
	}
	if f.obj[obj]&t == t {
		return false
	}
	f.obj[obj] |= t
	return true
}

// ObjTaint returns the fixpoint taint of one object (masked for sanitized
// objects).
func (f *Flow) ObjTaint(obj types.Object) Taint {
	if obj == nil || f.san[obj] {
		return 0
	}
	return f.obj[obj]
}

// ExprTaint computes the taint an expression's value can carry under the
// current fixpoint: object taints at identifiers, union over operands,
// container taint through field/index reads, Source everywhere, Transfer
// (or the argument-union default) at calls. Constant expressions carry no
// taint — their value is fixed at compile time.
func (f *Flow) ExprTaint(e ast.Expr) Taint {
	if e == nil {
		return 0
	}
	if tv, ok := f.Pass.Info.Types[e]; ok && tv.Value != nil {
		return 0
	}
	var src Taint
	if f.cfg.Source != nil {
		src = f.cfg.Source(f.Pass, e)
	}
	switch x := e.(type) {
	case *ast.Ident:
		return src | f.ObjTaint(objOf(f.Pass, x))
	case *ast.ParenExpr:
		return src | f.ExprTaint(x.X)
	case *ast.UnaryExpr:
		return src | f.ExprTaint(x.X)
	case *ast.StarExpr:
		return src | f.ExprTaint(x.X)
	case *ast.BinaryExpr:
		return src | f.ExprTaint(x.X) | f.ExprTaint(x.Y)
	case *ast.SelectorExpr:
		// Package-qualified identifiers root nothing; field reads carry
		// their container's taint (modulo the FieldRead hook).
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := f.Pass.Info.Uses[id].(*types.PkgName); isPkg {
				return src
			}
		}
		cont := f.ExprTaint(x.X)
		if f.cfg.FieldRead != nil {
			cont = f.cfg.FieldRead(f, x, cont)
		}
		return src | cont
	case *ast.IndexExpr:
		return src | f.ExprTaint(x.X)
	case *ast.SliceExpr:
		return src | f.ExprTaint(x.X)
	case *ast.TypeAssertExpr:
		return src | f.ExprTaint(x.X)
	case *ast.CompositeLit:
		var t Taint
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			t |= f.ExprTaint(elt)
		}
		return src | t
	case *ast.CallExpr:
		if tv, ok := f.Pass.Info.Types[x.Fun]; ok && tv.IsType() {
			// Conversion: the value flows through, possibly changing type —
			// int64(f) keeps f's float derivation.
			if len(x.Args) == 1 {
				return src | f.ExprTaint(x.Args[0])
			}
			return src
		}
		var args Taint
		for _, a := range x.Args {
			args |= f.ExprTaint(a)
		}
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			// Method receiver participates like an argument.
			if id, ok := sel.X.(*ast.Ident); !ok || !isPkgName(f.Pass, id) {
				args |= f.ExprTaint(sel.X)
			}
		}
		if f.cfg.Transfer != nil {
			return src | f.cfg.Transfer(f, x, args)
		}
		return src | args
	case *ast.FuncLit:
		return src
	}
	return src
}

func isPkgName(pass *Pass, id *ast.Ident) bool {
	_, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
