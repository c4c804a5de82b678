// The noalloc analyzer. The timing wheel's Schedule/Pop, the event pool and
// the per-word C-FIFO and sim queue operations are the per-cycle hot paths:
// the benchrecord gate keeps their allocs/op at zero, but a benchmark only
// samples the code path its loop drives. Functions marked
//
//	//accellint:noalloc guard=TestName
//
// promise the zero-allocation steady state statically: the analyzer rejects
// every construct that can allocate —
//
//   - &T{...}, slice/map composite literals, make, new
//   - append (growable backing array)
//   - map writes (bucket growth)
//   - closures (FuncLit) and go statements
//   - string concatenation and string<->[]byte/[]rune conversions
//   - fmt/log calls
//   - interface boxing of non-pointer, non-constant values (assignments
//     and call arguments with an interface-typed destination)
//
// Cold-start exceptions (pool growth, first-touch lazy sizing) carry an
// //accellint:alloc <reason> line directive. The guard=TestName argument is
// mandatory and names the testing.AllocsPerRun test that proves the steady
// state dynamically; TestNoallocGuardsExist cross-validates that every
// named guard exists, so the static and dynamic checks cannot drift apart.
package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewNoAlloc builds the zero-allocation hot-path analyzer.
func NewNoAlloc() *Analyzer {
	a := &Analyzer{
		Name: "noalloc",
		Doc:  "//accellint:noalloc functions must not contain allocating constructs; cold-start sites carry //accellint:alloc",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				d, marked := pass.DocDirective(fd.Doc, "noalloc")
				if !marked {
					continue
				}
				if DirectiveArg(d.Reason, "guard") == "" {
					pass.Reportf(fd.Pos(),
						"//accellint:noalloc on %s needs guard=TestName naming its testing.AllocsPerRun test", fd.Name.Name)
				}
				checkNoAlloc(pass, file, fd)
			}
		}
		return nil
	}
	return a
}

func checkNoAlloc(pass *Pass, file *ast.File, fd *ast.FuncDecl) {
	flag := func(n ast.Node, what string) {
		if pass.LineDirective(file, n.Pos(), "alloc") {
			return
		}
		pass.Reportf(n.Pos(), "%s in //accellint:noalloc function %s; hoist it out of the hot path or annotate the cold-start site with //accellint:alloc", what, fd.Name.Name)
	}

	// Selector expressions that are the Fun of a call are method calls, not
	// method values; collect them so the method-value check below skips them.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			callFuns[c.Fun] = true
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if !callFuns[n] {
				if sel, ok := pass.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					flag(n, "method value allocates its receiver binding")
				}
			}
		case *ast.CompositeLit:
			switch typeUnder(pass, n).(type) {
			case *types.Slice, *types.Map:
				flag(n, "slice/map literal allocates")
				return false
			}
		case *ast.UnaryExpr:
			if lit, ok := n.X.(*ast.CompositeLit); ok {
				flag(lit, "&composite literal escapes to the heap")
				return false
			}
		case *ast.CallExpr:
			switch {
			case isBuiltin(pass, n.Fun, "make"):
				flag(n, "make allocates")
			case isBuiltin(pass, n.Fun, "new"):
				flag(n, "new allocates")
			case isBuiltin(pass, n.Fun, "append"):
				flag(n, "append may grow the backing array")
			default:
				if pkg := callPkgPath(pass, n); pkg == "fmt" || pkg == "log" {
					flag(n, pkg+" call allocates")
				} else if tv, ok := pass.Info.Types[n.Fun]; ok && tv.IsType() {
					checkAllocConversion(pass, flag, n)
				} else {
					checkBoxedArgs(pass, flag, n)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if _, isMap := typeUnder(pass, idx.X).(*types.Map); isMap {
						flag(lhs, "map write may grow buckets")
					}
				}
				checkBoxedStore(pass, flag, lhs, n.Rhs[i])
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if b, ok := typeUnder(pass, n).(*types.Basic); ok && b.Info()&types.IsString != 0 {
					flag(n, "string concatenation allocates")
				}
			}
		case *ast.FuncLit:
			flag(n, "closure allocates")
			return false
		case *ast.GoStmt:
			flag(n, "go statement allocates a goroutine")
		}
		return true
	})
}

// checkAllocConversion flags string <-> []byte / []rune conversions, which
// copy their operand.
func checkAllocConversion(pass *Pass, flag func(ast.Node, string), call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	dst := pass.Info.Types[call.Fun].Type
	src := pass.Info.Types[call.Args[0]].Type
	if dst == nil || src == nil {
		return
	}
	if isStringType(dst) && isByteOrRuneSlice(src) || isByteOrRuneSlice(dst) && isStringType(src) {
		flag(call, "string conversion copies its operand")
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// checkBoxedArgs flags call arguments boxed into interface parameters:
// storing a non-pointer, non-constant concrete value in an interface
// allocates unless the value is pointer-shaped.
func checkBoxedArgs(pass *Pass, flag func(ast.Node, string), call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		if pt != nil && boxesIntoInterface(pass, arg, pt) {
			flag(arg, "interface boxing allocates")
		}
	}
}

// checkBoxedStore flags assignments of concrete values into interface-typed
// destinations.
func checkBoxedStore(pass *Pass, flag func(ast.Node, string), lhs, rhs ast.Expr) {
	lt := pass.Info.Types[lhs].Type
	if lt == nil {
		// := defines; use the declared object's type.
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				lt = obj.Type()
			}
		}
	}
	if lt != nil && boxesIntoInterface(pass, rhs, lt) {
		flag(rhs, "interface boxing allocates")
	}
}

// boxesIntoInterface reports whether storing e into a destination of type
// dst boxes a concrete value: dst is an interface, e is non-interface,
// non-pointer-shaped and not a compile-time constant (constants are
// interned by the runtime's staticuint64s / readonly data).
func boxesIntoInterface(pass *Pass, e ast.Expr, dst types.Type) bool {
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// callPkgPath returns the defining package path of a package-level function
// call, or "" when the callee is not a qualified identifier.
func callPkgPath(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	p := fn.Pkg().Path()
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		// Match by terminal element so vendored/stub fixture paths bind too.
		p = p[i+1:]
	}
	return p
}
