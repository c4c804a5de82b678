// The ratalias analyzer. All guarantees in this reproduction are exact
// because they are computed in *big.Rat — but big.Rat has pointer
// semantics and every arithmetic method mutates its receiver in place
// (and returns it, inviting chaining). The two recurring bug shapes:
//
//	scratch := new(big.Rat)
//	for _, s := range streams {
//	    scratch.Mul(s.Rate, k)
//	    out = append(out, scratch)   // every element is the SAME Rat
//	}
//
// and a setter that retains the caller's Rat in receiver state
// (s.rate = r) so later in-place mutation on either side corrupts the
// other. Both are silent: the values are right until the next Mul.
//
// Rule A (store-then-mutate) flags a *big.Rat local that is stored into a
// container (struct field, map/slice element, append, composite literal)
// and then mutated in place — including the loop-carried order where the
// mutation textually precedes the store but bites on the next iteration.
// A fresh redefinition (x = new(big.Rat)... / big.NewRat(...)) between
// store and mutation resets the alias and clears the finding.
//
// Rule B (caller retention) flags a store of a caller-derived Rat
// (parameter-tainted, tracked through the dataflow engine with big.Rat
// methods returning their receiver's taint) into receiver state. The copy
// idiom new(big.Rat).Set(arg) has a fresh receiver and passes.
//
// Deliberately mutating a field-held Rat (c.util.Add(c.util, x)) is not
// flagged: that is the owner updating its own state. Suppress sanctioned
// sharing with //accellint:ratalias <reason> on the finding's line.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ratMutators are the big.Rat methods that write through the receiver.
var ratMutators = map[string]bool{
	"Set": true, "SetInt": true, "SetInt64": true, "SetUint64": true,
	"SetFrac": true, "SetFrac64": true, "SetFloat64": true, "SetString": true,
	"Add": true, "Sub": true, "Mul": true, "Quo": true,
	"Neg": true, "Abs": true, "Inv": true,
}

// NewRatAlias builds the big.Rat aliasing analyzer: *big.Rat values must
// not be shared into containers or receiver state while also mutated in
// place.
func NewRatAlias() *Analyzer {
	a := &Analyzer{
		Name: "ratalias",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkRatStoreMutate(pass, file, fd)
				checkRatRetention(pass, file, fd)
			}
		}
		return nil
	}
	return a
}

// isRatPtr reports whether t is *math/big.Rat (or the fixture stub big.Rat).
func isRatPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Name() != "Rat" || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == "math/big" || path == "big"
}

func isRatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.Types[e].Type
	return t != nil && isRatPtr(t)
}

// isFreshRat reports whether e evaluates to Rat memory this function just
// created: new(big.Rat), big.NewRat(...), or a method chain rooted at one
// (new(big.Rat).Set(x) mutates fresh memory and returns it).
func isFreshRat(pass *Pass, e ast.Expr) bool {
	for {
		switch x := unparen(e).(type) {
		case *ast.CallExpr:
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				if isBuiltin(pass, fun, "new") {
					return true
				}
				return false
			case *ast.SelectorExpr:
				if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
					p := fn.Pkg().Path()
					if (p == "math/big" || p == "big") && fn.Type().(*types.Signature).Recv() == nil {
						return true // big.NewRat and friends construct fresh
					}
				}
				// Method chain: freshness comes from the receiver.
				e = fun.X
			default:
				return false
			}
		default:
			return false
		}
	}
}

// ratEvent records one occurrence of interest for a Rat-typed local: a
// store into a container, an in-place mutation, or a fresh redefinition.
// loops is the stack of enclosing for/range statements at the occurrence,
// innermost last, so loop-carried aliasing can be detected.
type ratEvent struct {
	pos   token.Pos
	loops []token.Pos
}

func inLoop(e ratEvent, loop token.Pos) bool {
	for _, l := range e.loops {
		if l == loop {
			return true
		}
	}
	return false
}

// checkRatStoreMutate implements Rule A over one function body.
func checkRatStoreMutate(pass *Pass, file *ast.File, fd *ast.FuncDecl) {
	type events struct{ stores, mutates, fresh []ratEvent }
	byObj := map[types.Object]*events{}
	get := func(id *ast.Ident) *events {
		obj := objOf(pass, id)
		if obj == nil {
			return nil
		}
		ev := byObj[obj]
		if ev == nil {
			ev = &events{}
			byObj[obj] = ev
		}
		return ev
	}

	var loops []token.Pos
	at := func(pos token.Pos) ratEvent {
		return ratEvent{pos: pos, loops: append([]token.Pos(nil), loops...)}
	}
	// recordStore notes ident-valued Rats stored into a container via e.
	recordStore := func(e ast.Expr) {
		id, ok := unparen(e).(*ast.Ident)
		if !ok || !isRatExpr(pass, id) {
			return
		}
		if ev := get(id); ev != nil {
			ev.stores = append(ev.stores, at(id.Pos()))
		}
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				loops = append(loops, n.Pos())
				walk(n.Body)
				loops = loops[:len(loops)-1]
				return false
			case *ast.RangeStmt:
				loops = append(loops, n.Pos())
				walk(n.Body)
				loops = loops[:len(loops)-1]
				return false
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					rhs := n.Rhs[i]
					switch l := lhs.(type) {
					case *ast.Ident:
						// The LHS of := is in Defs, not Types — classify the
						// ident by its object's type, not the expression's.
						if obj := objOf(pass, l); obj != nil && isRatPtr(obj.Type()) && isFreshRat(pass, rhs) {
							if ev := get(l); ev != nil {
								ev.fresh = append(ev.fresh, at(l.Pos()))
							}
						}
					case *ast.SelectorExpr, *ast.IndexExpr:
						_ = l
						recordStore(rhs)
					}
					if call, ok := unparen(rhs).(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") {
						for _, arg := range call.Args[1:] {
							recordStore(arg)
						}
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					recordStore(elt)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !ratMutators[sel.Sel.Name] {
					return true
				}
				recv, ok := unparen(sel.X).(*ast.Ident)
				if !ok || !isRatExpr(pass, recv) {
					return true
				}
				if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
					p := fn.Pkg().Path()
					if p == "math/big" || p == "big" {
						if ev := get(recv); ev != nil {
							ev.mutates = append(ev.mutates, at(n.Pos()))
						}
					}
				}
			}
			return true
		})
	}
	walk(fd.Body)

	for obj, ev := range byObj {
		if len(ev.stores) == 0 || len(ev.mutates) == 0 {
			continue
		}
		reportRatAlias(pass, file, obj, ev.stores, ev.mutates, ev.fresh)
	}
}

// reportRatAlias decides whether a (stores, mutates, fresh) event set is an
// aliasing bug and reports the earliest offending site. Straight-line: a
// mutation after a store with no fresh redefinition in between. Loop: a
// store and a mutation sharing an enclosing loop with no fresh
// redefinition in that loop (the next iteration mutates the stored value
// regardless of textual order).
func reportRatAlias(pass *Pass, file *ast.File, obj types.Object, stores, mutates, fresh []ratEvent) {
	freshBetween := func(lo, hi token.Pos) bool {
		for _, f := range fresh {
			if f.pos > lo && f.pos < hi {
				return true
			}
		}
		return false
	}
	for _, s := range stores {
		for _, m := range mutates {
			if m.pos > s.pos && !freshBetween(s.pos, m.pos) {
				if !pass.LineDirective(file, m.pos, "ratalias") {
					pass.Reportf(m.pos,
						"%s is mutated in place after being stored into a container; the stored element aliases it — store new(big.Rat).Set(%s) instead", obj.Name(), obj.Name())
				}
				return
			}
			for _, loop := range s.loops {
				if !inLoop(m, loop) {
					continue
				}
				freshInLoop := false
				for _, f := range fresh {
					if inLoop(f, loop) {
						freshInLoop = true
						break
					}
				}
				if !freshInLoop {
					if !pass.LineDirective(file, s.pos, "ratalias") {
						pass.Reportf(s.pos,
							"%s is stored and mutated in the same loop; every stored element aliases one scratch Rat — allocate per iteration or store new(big.Rat).Set(%s)", obj.Name(), obj.Name())
					}
					return
				}
			}
		}
	}
}

// checkRatRetention implements Rule B: caller-derived Rats stored into
// receiver state.
func checkRatRetention(pass *Pass, file *ast.File, fd *ast.FuncDecl) {
	if fd.Recv == nil {
		return
	}
	recvObjs := map[types.Object]bool{}
	for _, f := range fd.Recv.List {
		for _, n := range f.Names {
			if obj := pass.Info.Defs[n]; obj != nil {
				recvObjs[obj] = true
			}
		}
	}
	params := map[types.Object]bool{}
	for _, f := range fd.Type.Params.List {
		for _, n := range f.Names {
			if obj := pass.Info.Defs[n]; obj != nil {
				params[obj] = true
			}
		}
	}
	if len(params) == 0 || len(recvObjs) == 0 {
		return
	}

	flow := NewFlow(pass, fd, FlowConfig{
		Source: func(pass *Pass, e ast.Expr) Taint {
			id, ok := e.(*ast.Ident)
			if !ok {
				return 0
			}
			if obj := pass.Info.Uses[id]; obj != nil && params[obj] {
				return TaintParam
			}
			return 0
		},
		Transfer: func(f *Flow, call *ast.CallExpr, args Taint) Taint {
			// big.Rat methods return their receiver: the result aliases the
			// receiver's memory, not the arguments'. new(big.Rat).Set(param)
			// is therefore clean — fresh receiver, fresh result.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isRatExpr(f.Pass, sel.X) {
				if fn, ok := f.Pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
					p := fn.Pkg().Path()
					if p == "math/big" || p == "big" {
						return f.ExprTaint(sel.X)
					}
				}
			}
			return args
		},
	})

	rootsAtRecv := func(lhs ast.Expr) bool {
		for {
			switch l := lhs.(type) {
			case *ast.Ident:
				obj := objOf(pass, l)
				return obj != nil && recvObjs[obj]
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

	check := func(stored ast.Expr) {
		if !isRatExpr(pass, stored) || isFreshRat(pass, stored) {
			return
		}
		if flow.ExprTaint(stored)&TaintParam == 0 {
			return
		}
		if !pass.LineDirective(file, stored.Pos(), "ratalias") {
			pass.Reportf(stored.Pos(),
				"receiver retains a caller-owned *big.Rat; later in-place mutation on either side corrupts the other — store new(big.Rat).Set(...) instead")
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			switch lhs.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr:
				if !rootsAtRecv(lhs) {
					continue
				}
				rhs := unparen(as.Rhs[i])
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") {
					for _, arg := range call.Args[1:] {
						check(unparen(arg))
					}
					continue
				}
				check(rhs)
			}
		}
		return true
	})
}
