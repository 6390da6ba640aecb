package lint

import (
	"go/token"
	"sort"
)

// NoAllocProp propagates the //ldlint:noalloc contract across the call
// graph: every module-local function transitively reachable from an
// annotated root must itself be alloc-clean — pass the same construct
// checks the intra-function noalloc analyzer applies to annotated
// bodies — or be explicitly annotated (making it a root with its own
// contract) or suppressed at the offending construct. Without this
// pass a noalloc function could delegate its allocation to an
// unannotated helper and the suite would never notice; the dynamic
// AllocsPerRun guards only catch that on the exact path a test drives.
//
// Each diagnostic carries the shortest call path from the root to the
// offending function, so the report explains *why* a function two
// frames from any annotation is being held to the contract:
//
//	make allocates in noalloc function (on //ldlint:noalloc path
//	qlog.Producer.Reserve -> qlog.helperA -> qlog.helperB)
//
// Goroutine-spawn edges (go statements, vclock Clock.Go) are not
// followed: an allocation on a freshly spawned goroutine is not on the
// caller's allocation count. Unresolved dynamic calls (interface
// methods, function-typed variables) are not followed either — the
// analysis is conservative only over what the static graph sees.
//
// A //ldlint:ignore noallocprop on a call site cuts traversal at that
// edge: the sanctioned way to mark a deliberate cold-path boundary
// (zone.Lookup handing off to wildcard and CNAME-chain synthesis)
// without suppressing every construct in the callee's subtree.
var NoAllocProp = &Analyzer{
	Name: "noallocprop",
	Doc:  "require every function reachable from a //ldlint:noalloc root to be alloc-clean, reporting the call path",
	Run:  runNoAllocProp,
}

func runNoAllocProp(p *ModulePass) {
	g := p.Module.Graph
	roots := annotatedRoots(g)
	// One construct scan per function, shared across every root that
	// reaches it; one report per construct, attributed to the first
	// (shortest, earliest-root) path that reaches it.
	findings := make(map[*FuncNode][]Diagnostic)
	reported := make(map[token.Position]bool)
	for _, root := range roots {
		g.Reach(root,
			func(e *CallEdge) bool { return !e.Go && !p.EdgeSuppressed(e.Pos) },
			func(node *FuncNode, path []*CallEdge) bool {
				if hasDirective(node.Decl.Doc, directiveNoAlloc) {
					return false // its own root; its own subtree, its own contract
				}
				ds, ok := findings[node]
				if !ok {
					var out []Diagnostic
					checkNoAllocFunc(p.subPass(node.Pkg, &out), node.Decl)
					findings[node] = out
					ds = out
				}
				for _, d := range ds {
					if reported[d.Pos] {
						continue
					}
					reported[d.Pos] = true
					d.Message += " (on //ldlint:noalloc path " + PathString(root, path) + ")"
					*p.out = append(*p.out, d)
				}
				return true
			})
	}
}

// annotatedRoots collects the //ldlint:noalloc functions, sorted by
// declaration position so traversal order — and with it the "first path
// wins" attribution — is deterministic run to run.
func annotatedRoots(g *CallGraph) []*FuncNode {
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if hasDirective(n.Decl.Doc, directiveNoAlloc) {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		pi := roots[i].Pkg.Fset.Position(roots[i].Decl.Pos())
		pj := roots[j].Pkg.Fset.Position(roots[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return roots
}
