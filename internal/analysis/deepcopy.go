// The deepcopy analyzer. The failover path freezes a sick gateway pair,
// exports every stream's state, and imports it on the standby while the
// rest of the platform keeps running — so an export that aliases the dead
// pair's internals (or an import that retains the caller's slices) is a
// data race and a value-corruption hazard that -race only catches when a
// test happens to mutate both sides. Functions marked with an
// //accellint:deepcopy directive in their doc comment are held to the
// hand-off contract statically:
//
//   - no returned value may carry a slice or map reachable from the
//     receiver, unless it passed through a clone (a call, or the
//     append(fresh, src...) idiom with a non-receiver first argument)
//   - no parameter-reachable slice or map may be stored into a field of
//     anything (retention); binding it to a plain local is fine
//
// Pointers and strings are exempt: *Stream hand-off is the documented
// ownership transfer (the exporter empties its table), and strings are
// immutable. The analysis is intra-procedural and assumes any non-append
// call returns fresh memory; cloneState-style helpers therefore pass.

package analysis

import (
	"go/ast"
	"go/types"
)

type rootKind int

const (
	rootNone rootKind = iota
	rootRecv
	rootParam
)

// NewDeepCopy builds the export-aliasing analyzer over directive-marked
// functions: //accellint:deepcopy functions must not export receiver-owned
// or retain caller-owned slices/maps.
func NewDeepCopy() *Analyzer {
	a := &Analyzer{
		Name: "deepcopy",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if _, marked := pass.DocDirective(fd.Doc, "deepcopy"); !marked {
					continue
				}
				checkDeepCopy(pass, fd)
			}
		}
		return nil
	}
	return a
}

func checkDeepCopy(pass *Pass, fd *ast.FuncDecl) {
	roots := map[types.Object]rootKind{}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, n := range f.Names {
				if obj := pass.Info.Defs[n]; obj != nil {
					roots[obj] = rootRecv
				}
			}
		}
	}
	for _, f := range fd.Type.Params.List {
		for _, n := range f.Names {
			if obj := pass.Info.Defs[n]; obj != nil {
				roots[obj] = rootParam
			}
		}
	}

	ret := returnedObjects(pass, fd)

	kindOf := func(e ast.Expr) rootKind { return exprRoot(pass, e, roots) }

	var flagComposite func(lit *ast.CompositeLit)
	flagComposite = func(lit *ast.CompositeLit) {
		for _, elt := range lit.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if inner, ok := v.(*ast.CompositeLit); ok {
				flagComposite(inner)
				continue
			}
			if kindOf(v) == rootRecv && isRefCollection(pass, v) {
				pass.Reportf(v.Pos(), "returned composite aliases receiver-owned %s; deep-copy it (append/clone) before export", typeWord(pass, v))
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				rhs := n.Rhs[i]
				rk := kindOf(rhs)
				switch l := lhs.(type) {
				case *ast.Ident:
					if obj := objOf(pass, l); obj != nil && rk != rootNone {
						roots[obj] = rk
					}
					if lit, ok := rhs.(*ast.CompositeLit); ok && ret[objOf(pass, l)] {
						flagComposite(lit)
					}
					if obj := objOf(pass, l); obj != nil && ret[obj] && rk == rootRecv && isRefCollection(pass, rhs) {
						pass.Reportf(rhs.Pos(), "returned value aliases receiver-owned %s; deep-copy it before export", typeWord(pass, rhs))
					}
					if obj := objOf(pass, l); obj != nil && ret[obj] {
						checkAppendInto(pass, rhs, kindOf)
					}
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					if rk == rootParam && isRefCollection(pass, rhs) {
						pass.Reportf(rhs.Pos(), "stored field retains caller-owned %s; deep-copy it on import", typeWord(pass, rhs))
					}
					if rootIdentKind(pass, lhs, ret) && rk == rootRecv && isRefCollection(pass, rhs) {
						pass.Reportf(rhs.Pos(), "returned value aliases receiver-owned %s; deep-copy it before export", typeWord(pass, rhs))
					}
					if rootIdentKind(pass, lhs, ret) {
						if lit, ok := rhs.(*ast.CompositeLit); ok {
							flagComposite(lit)
						}
					}
				}
			}
		case *ast.RangeStmt:
			rk := kindOf(n.X)
			if rk != rootNone {
				if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.Info.Defs[id]; obj != nil {
						roots[obj] = rk
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if kindOf(res) == rootRecv && isRefCollection(pass, res) {
					pass.Reportf(res.Pos(), "return aliases receiver-owned %s; deep-copy it before export", typeWord(pass, res))
				}
				if lit, ok := res.(*ast.CompositeLit); ok {
					flagComposite(lit)
				}
			}
		}
		return true
	})
}

// checkAppendInto flags `out = append(out, src)` / `append(out, src...)`
// where out is returned and src carries receiver-owned reference
// collections into it.
func checkAppendInto(pass *Pass, rhs ast.Expr, kindOf func(ast.Expr) rootKind) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "append") {
		return
	}
	for i, arg := range call.Args[1:] {
		if kindOf(arg) != rootRecv {
			continue
		}
		if call.Ellipsis.IsValid() && i == len(call.Args)-2 {
			// append(out, src...) copies src's elements; that only aliases
			// when the elements are themselves slices or maps.
			if t := pass.Info.Types[arg].Type; t != nil {
				if s, ok := t.Underlying().(*types.Slice); ok && isRefCollectionType(s.Elem()) {
					pass.Reportf(arg.Pos(), "appended elements of receiver-owned %s are slices/maps and still alias; deep-copy them", typeWord(pass, arg))
				}
			}
			continue
		}
		if isRefCollection(pass, arg) {
			pass.Reportf(arg.Pos(), "append retains receiver-owned %s in the returned slice; deep-copy it", typeWord(pass, arg))
		}
	}
}

// returnedObjects computes the set of objects whose value can flow into a
// return: named results, idents mentioned in return statements, and (by
// fixpoint) idents assigned into fields/elements of those.
func returnedObjects(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	ret := map[types.Object]bool{}
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, n := range f.Names {
				if obj := pass.Info.Defs[n]; obj != nil {
					ret[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range rs.Results {
			if id, ok := res.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					ret[obj] = true
				}
			}
		}
		return true
	})
	// Fixpoint: exports[i] = ex makes ex's fields part of the return.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, ok := as.Rhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Uses[id]
				if obj == nil || ret[obj] {
					continue
				}
				if rootIdentKind(pass, lhs, ret) {
					ret[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return ret
}

// rootIdentKind reports whether lhs is (a field/element chain rooted at) an
// identifier in set.
func rootIdentKind(pass *Pass, lhs ast.Expr, set map[types.Object]bool) bool {
	for {
		switch l := lhs.(type) {
		case *ast.Ident:
			obj := objOf(pass, l)
			return obj != nil && set[obj]
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

// exprRoot walks e to its root and classifies what the expression's value
// can alias. Calls are assumed to return fresh memory (clone helpers), with
// the exception of append, whose result aliases its first argument, and
// slicing, which aliases its operand.
func exprRoot(pass *Pass, e ast.Expr, roots map[types.Object]rootKind) rootKind {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				return roots[obj]
			}
			return rootNone
		case *ast.SelectorExpr:
			// Qualified package identifiers root nothing.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pass.Info.Uses[id].(*types.PkgName); isPkg {
					return rootNone
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			if isBuiltin(pass, x.Fun, "append") && len(x.Args) > 0 {
				e = x.Args[0]
				continue
			}
			return rootNone
		default:
			return rootNone
		}
	}
}

// isRefCollection reports whether e's static type is a slice or map — the
// types whose aliasing the deep-copy contract is about.
func isRefCollection(pass *Pass, e ast.Expr) bool {
	t := pass.Info.Types[e].Type
	return t != nil && isRefCollectionType(t)
}

func isRefCollectionType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func typeWord(pass *Pass, e ast.Expr) string {
	if t := pass.Info.Types[e].Type; t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return "map"
		}
	}
	return "slice"
}
