package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// CallEdge is one resolved call to Callee at Pos. Go marks a call that
// starts a new goroutine: the callee of a go statement, or a function
// value handed to vclock's Clock.Go.
type CallEdge struct {
	Callee *FuncNode
	Pos    token.Pos
	Go     bool
}

// FuncNode is one module-local function declaration in the call graph.
// Function literals are not separate nodes: calls lexically inside a
// literal are attributed to the enclosing declaration, a conservative
// over-approximation (the literal might never run) that errs toward
// reporting on contract paths.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []*CallEdge
}

// DisplayName renders the node for call-path diagnostics:
// "pkg.Func" for functions, "pkg.Type.Method" for methods (pointer
// receivers print without the star — the path identifies code, not
// value shapes).
func (n *FuncNode) DisplayName() string {
	obj := n.Obj
	pkg := obj.Pkg().Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	return pkg + "." + obj.Name()
}

// CallGraph is the module-wide static call graph: every function and
// method declared in the module, with edges for direct calls, method
// calls on concrete receivers, goroutine spawns, and function values
// passed to call sites (the callee may invoke them). Dynamic dispatch
// through interface methods and calls through function-typed variables
// are not resolved: there is no points-to analysis.
type CallGraph struct {
	Nodes map[*types.Func]*FuncNode
}

// Node returns the graph node for obj (resolving generic instantiations
// to their declaration), or nil for functions outside the module.
func (g *CallGraph) Node(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	return g.Nodes[obj.Origin()]
}

// buildCallGraph indexes every FuncDecl in pkgs and resolves the static
// call edges out of each body.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*FuncNode)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					g.Nodes[obj] = &FuncNode{Obj: obj, Decl: fn, Pkg: pkg}
				}
			}
		}
	}
	for _, node := range g.Nodes {
		collectEdges(g, node)
	}
	return g
}

// collectEdges walks one declaration body and records its outgoing
// edges.
func collectEdges(g *CallGraph, node *FuncNode) {
	info := node.Pkg.Info

	// goCalls marks the CallExpr of each go statement so the edge it
	// resolves to is a spawn.
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			goCalls[gs.Call] = true
		}
		return true
	})

	addEdge := func(callee *types.Func, pos token.Pos, spawn bool) {
		if target := g.Node(callee); target != nil { // nil: stdlib or unresolved
			node.Out = append(node.Out, &CallEdge{Callee: target, Pos: pos, Go: spawn})
		}
	}

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := staticCallee(info, call); callee != nil {
			addEdge(callee, call.Pos(), goCalls[call])
		}
		// Function values passed as arguments: the callee may invoke
		// them — on a new goroutine when the call site is vclock's
		// Clock.Go.
		spawn := isGoroutineSpawner(info, call)
		for _, arg := range call.Args {
			if fv := funcValue(info, arg); fv != nil {
				addEdge(fv, arg.Pos(), spawn)
			}
		}
		return true
	})
}

// staticCallee resolves call to the *types.Func it statically invokes:
// package-level functions (local or dot-imported), qualified pkg.Func
// selectors, and method calls on concrete receivers. Interface method
// calls and calls through function-typed variables return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // field of function type: dynamic
			}
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch: not resolved
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// No selection entry: a qualified identifier (pkg.Func).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcValue resolves expr to the *types.Func it names when used as a
// value (not called): a function identifier or a method value on a
// concrete receiver.
func funcValue(info *types.Info, expr ast.Expr) *types.Func {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if sel.Kind() != types.MethodVal || types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isGoroutineSpawner reports whether call invokes a primitive that runs
// its function argument on a new goroutine: vclock's Clock.Go (both the
// interface method and SimClock's concrete method). The builtin go
// statement is handled separately by the caller.
func isGoroutineSpawner(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Go" {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	return ok && fn.Pkg() != nil && path.Base(fn.Pkg().Path()) == "vclock"
}

// Reach walks the graph from root over edges the follow filter accepts,
// invoking visit once per reached node (root excluded) with the edge
// path from root to it. visit returning false stops descent below that
// node (its own subtree is someone else's contract).
func (g *CallGraph) Reach(root *FuncNode, follow func(*CallEdge) bool, visit func(node *FuncNode, path []*CallEdge) bool) {
	seen := map[*FuncNode]bool{root: true}
	// Breadth-first so the recorded path to each node is the shortest
	// one — diagnostics should show the most direct route from the
	// contract root to the violation.
	type item struct {
		node *FuncNode
		path []*CallEdge
	}
	queue := []item{{node: root}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, e := range it.node.Out {
			if !follow(e) || seen[e.Callee] {
				continue
			}
			seen[e.Callee] = true
			edges := append(append([]*CallEdge(nil), it.path...), e)
			if visit(e.Callee, edges) {
				queue = append(queue, item{node: e.Callee, path: edges})
			}
		}
	}
}

// PathString renders a call path for a diagnostic message:
// "root -> a -> b".
func PathString(root *FuncNode, edges []*CallEdge) string {
	s := root.DisplayName()
	for _, e := range edges {
		s += " -> " + e.Callee.DisplayName()
	}
	return s
}
