package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc enforces the //ldlint:noalloc annotation: a function so
// marked is on a measured zero-allocation hot path (guarded elsewhere
// by AllocsPerRun regression tests) and must not contain
// allocation-prone constructs. The checks are lexical and conservative
// — escape analysis is deliberately not modelled, because the contract
// these paths document is "no construct that *can* allocate", with
// explicit reasoned suppressions where an allocation is part of the
// contract (e.g. the single caller-owned response copy).
//
// Flagged constructs:
//
//   - calls into fmt (every fmt function allocates for its variadic
//     any boxing alone) and errors.New (hoist to a package-level var);
//   - non-constant string concatenation;
//   - map and slice composite literals, make, and new;
//   - append whose result is not assigned back to the expression it
//     extends (the amortized-growth pattern) and is not directly
//     returned (the append-style encoder pattern);
//   - string(b) conversions from byte/rune slices, except the
//     m[string(b)] map-index form the compiler optimizes to no
//     allocation;
//   - implicit interface conversions of non-pointer-shaped values
//     (call arguments, assignments, returns): boxing copies the value
//     to the heap;
//   - closures that capture a variable mutated in the enclosing
//     function: capture-by-reference forces the variable (and the
//     closure) to the heap;
//   - &x of a local, or &T{...}, returned or stored anywhere but a
//     local: the value outlives the call, so it lives on the heap.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "flag allocation-prone constructs in //ldlint:noalloc annotated functions",
	Run:  perPackage(runNoAlloc),
}

func runNoAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, directiveNoAlloc) {
				continue
			}
			checkNoAllocFunc(pass, fn)
		}
	}
}

// checkNoAllocFunc applies every noalloc rule to one annotated function.
func checkNoAllocFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Info
	parents := buildParentMap(fn.Body)
	allowedAppends := collectAllowedAppends(info, fn.Body)
	mutated := collectMutatedObjects(info, fn.Body)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNoAllocCall(pass, n, parents, allowedAppends)
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in noalloc function")
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in noalloc function (use an array literal for a fixed element set)")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				tv := info.Types[n]
				if tv.Value == nil && tv.Type != nil && isString(tv.Type) {
					pass.Reportf(n.Pos(), "string concatenation allocates in noalloc function")
				}
			}
		case *ast.FuncLit:
			checkNoAllocClosure(pass, n, fn, mutated)
		case *ast.ReturnStmt:
			// Returns inside nested closures resolve against the closure's
			// signature, which the closure rule already covers.
			if enclosingFuncLit(parents, n) == nil {
				checkBoxingInStmt(pass, n, fn)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN {
				if t := info.Types[n.Lhs[0]].Type; t != nil && isString(t) {
					pass.Reportf(n.Pos(), "string concatenation allocates in noalloc function")
				}
			}
			checkBoxingInStmt(pass, n, fn)
		}
		return true
	})
}

// checkNoAllocCall handles every CallExpr rule: builtins, forbidden
// packages, string conversions, and interface-boxing arguments.
func checkNoAllocCall(pass *Pass, call *ast.CallExpr, parents map[ast.Node]ast.Node, allowedAppends map[*ast.CallExpr]bool) {
	info := pass.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "append":
				if !allowedAppends[call] {
					pass.Reportf(call.Pos(), "append result is not assigned back to %s (amortized-growth pattern) or returned; the fresh backing array allocates", types.ExprString(call.Args[0]))
				}
			case "new":
				pass.Reportf(call.Pos(), "new allocates in noalloc function")
			case "make":
				pass.Reportf(call.Pos(), "make allocates in noalloc function")
			}
			return
		}
	case *ast.SelectorExpr:
		if pkgPath, name, ok := packageLevelCallee(info, fun); ok {
			switch {
			case pkgPath == "fmt":
				pass.Reportf(call.Pos(), "fmt.%s allocates (variadic any boxing and formatting state) in noalloc function", name)
				return
			case pkgPath == "errors" && name == "New":
				pass.Reportf(call.Pos(), "errors.New allocates per call; hoist the error to a package-level var")
				return
			case pkgPath == "runtime" && name == "KeepAlive":
				// Compiler intrinsic: its any parameter never actually boxes.
				return
			}
		}
	}

	// Conversions: string(b) from byte/rune slices, and explicit
	// interface conversions like any(v).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.Types[call.Args[0]].Type
		if dst != nil && src != nil && isString(dst) && isByteOrRuneSlice(src) && !isMapIndexKey(parents, call) {
			pass.Reportf(call.Pos(), "string(%s) conversion allocates outside the optimized map-index form", types.ExprString(call.Args[0]))
		}
		reportBoxing(pass, call.Args[0], dst, "conversion")
		return
	}

	checkBoxingArgs(pass, call)
}

// collectAllowedAppends gathers append calls used in one of the two
// non-flagged shapes: `x = append(x, ...)` (same target, any op= form
// excluded — only plain assignment writes back) and `return append(x,
// ...)` (append-style encoders that hand the grown slice to the
// caller). Appends chained through the first argument of an enclosing
// allowed append (`x = append(append(x, a), b)`) inherit the allowance.
func collectAllowedAppends(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	allowed := make(map[*ast.CallExpr]bool)
	isAppend := func(e ast.Expr) (*ast.CallExpr, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return nil, false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return call, ok && b.Name() == "append" && len(call.Args) > 0
	}
	// allow marks call and any append chained through its first arg.
	var allow func(call *ast.CallExpr, target string)
	allow = func(call *ast.CallExpr, target string) {
		if target != "" && types.ExprString(ast.Unparen(call.Args[0])) != target {
			if inner, ok := isAppend(call.Args[0]); ok {
				allow(inner, target)
				allowed[call] = true
			}
			return
		}
		allowed[call] = true
		if inner, ok := isAppend(call.Args[0]); ok {
			allow(inner, target)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				return true
			}
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if call, ok := isAppend(rhs); ok {
					allow(call, types.ExprString(n.Lhs[i]))
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := isAppend(res); ok {
					allow(call, "")
				}
			}
		}
		return true
	})
	return allowed
}

// collectMutatedObjects returns the variables assigned (with =, op=,
// ++ or --) anywhere in body, beyond their defining statement. A
// closure capturing one of these captures it by reference.
func collectMutatedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	mutated := make(map[types.Object]bool)
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				mutated[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // the defining write is not a mutation
			}
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		}
		return true
	})
	return mutated
}

// checkNoAllocClosure flags closures that capture a mutated variable
// of the enclosing function: those captures are by reference, forcing
// the variable (and with it the closure) onto the heap.
func checkNoAllocClosure(pass *Pass, lit *ast.FuncLit, fn *ast.FuncDecl, mutated map[types.Object]bool) {
	info := pass.Info
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || reported[obj] || !mutated[obj] {
			return true
		}
		// Captured: declared in the enclosing function, outside the literal.
		if obj.Pos() < fn.Body.Pos() || obj.Pos() > fn.Body.End() {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		reported[obj] = true
		pass.Reportf(id.Pos(), "closure captures mutated variable %s by reference, forcing it to the heap", obj.Name())
		return true
	})
}

// checkBoxingArgs flags call arguments implicitly converted to an
// interface parameter when the argument's concrete type is not
// pointer-shaped: that conversion heap-allocates a copy of the value.
func checkBoxingArgs(pass *Pass, call *ast.CallExpr) {
	info := pass.Info
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		reportBoxing(pass, arg, pt, "argument")
	}
}

// checkBoxingInStmt flags interface boxing in return statements and
// assignments to interface-typed destinations, and the address of a
// local or of a composite literal leaving the call through either.
func checkBoxingInStmt(pass *Pass, stmt ast.Stmt, fn *ast.FuncDecl) {
	info := pass.Info
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			reportAddrEscape(pass, fn, res, "returning")
		}
		sig, ok := info.Defs[fn.Name].Type().(*types.Signature)
		if !ok || sig.Results().Len() != len(s.Results) {
			return
		}
		for i, res := range s.Results {
			reportBoxing(pass, res, sig.Results().At(i).Type(), "return value")
		}
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) || s.Tok == token.DEFINE {
			return // := infers the RHS type and binds a local: nothing converts or escapes
		}
		for i, rhs := range s.Rhs {
			reportBoxing(pass, rhs, lhsType(info, s.Lhs[i]), "assignment")
			if id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident); !ok || !isLocal(info, fn, id) {
				reportAddrEscape(pass, fn, rhs, "storing")
			}
		}
	}
}

// reportAddrEscape flags e when it is &x of a local variable or &T{...}:
// returned, or stored anywhere but a local, the value outlives the call
// and the compiler moves it to the heap.
func reportAddrEscape(pass *Pass, fn *ast.FuncDecl, e ast.Expr, what string) {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return
	}
	switch x := ast.Unparen(u.X).(type) {
	case *ast.CompositeLit:
	case *ast.Ident:
		if !isLocal(pass.Info, fn, x) {
			return
		}
	default:
		return // &s.field, &a[i]: the address of storage that already exists
	}
	pass.Reportf(u.Pos(), "%s the address of %s moves it to the heap in noalloc function", what, types.ExprString(u.X))
}

// isLocal reports whether id is the blank identifier or names a variable
// declared in fn (a parameter included).
func isLocal(info *types.Info, fn *ast.FuncDecl, id *ast.Ident) bool {
	if id.Name == "_" {
		return true
	}
	obj, ok := info.Uses[id].(*types.Var)
	return ok && obj.Pos() >= fn.Pos() && obj.Pos() <= fn.End()
}

// lhsType resolves the declared type of an assignment destination.
func lhsType(info *types.Info, lhs ast.Expr) types.Type {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
		return nil
	}
	if tv, ok := info.Types[lhs]; ok {
		return tv.Type
	}
	return nil
}

// enclosingFuncLit returns the innermost FuncLit containing n, or nil.
func enclosingFuncLit(parents map[ast.Node]ast.Node, n ast.Node) *ast.FuncLit {
	for p := parents[n]; p != nil; p = parents[p] {
		if lit, ok := p.(*ast.FuncLit); ok {
			return lit
		}
	}
	return nil
}

// reportBoxing reports expr if converting it to dst is an
// allocation-carrying interface boxing.
func reportBoxing(pass *Pass, expr ast.Expr, dst types.Type, what string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	src := tv.Type
	if types.IsInterface(src) || isPointerShaped(src) || isZeroSized(src) {
		return
	}
	pass.Reportf(expr.Pos(), "%s boxes %s into %s, allocating a heap copy", what, src, dst)
}

// --- shared type helpers ---

// packageLevelCallee resolves sel to (package path, func name) when the
// selector is pkg.Func on an imported package (not a method call).
func packageLevelCallee(info *types.Info, sel *ast.SelectorExpr) (string, string, bool) {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// isPointerShaped reports whether values of t fit in an interface word
// without allocating: pointers, maps, chans, funcs, unsafe pointers.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isZeroSized(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !isZeroSized(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || isZeroSized(u.Elem())
	}
	return false
}

// isMapIndexKey reports whether expr is the index operand of a map
// index expression (the m[string(b)] lookup the compiler keeps
// allocation-free).
func isMapIndexKey(parents map[ast.Node]ast.Node, expr ast.Expr) bool {
	p := parents[expr]
	for {
		if pe, ok := p.(*ast.ParenExpr); ok {
			p = parents[pe]
			continue
		}
		break
	}
	ix, ok := p.(*ast.IndexExpr)
	return ok && ix.Index == expr
}

// buildParentMap records each node's parent within root.
func buildParentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
