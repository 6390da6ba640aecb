package lint

import "go/token"

// Module is every package of the repository loaded into one analysis
// universe, plus the call graph the propagation analyzer walks. Where a
// *Pass sees one package, a *ModulePass sees the whole program — which
// is what noallocprop needs, because the contract it checks (a noalloc
// root staying alloc-clean) is a property of call *paths*, and call
// paths do not respect package boundaries.
type Module struct {
	Fset     *token.FileSet
	Packages []*Package
	Graph    *CallGraph
}

// NewModule builds the call graph over the loaded packages.
func NewModule(fset *token.FileSet, pkgs []*Package) *Module {
	return &Module{Fset: fset, Packages: pkgs, Graph: buildCallGraph(pkgs)}
}

// ModulePass carries the loaded module through one analyzer.
type ModulePass struct {
	Module *Module

	sups     supIndex
	analyzer string
	out      *[]Diagnostic
}

// EdgeSuppressed reports whether a //ldlint:ignore for this analyzer
// sits on the call site at pos (same line or the line above) and marks
// it used. The propagation analyzer uses this to cut traversal at
// deliberate contract boundaries — a cold-path call whose callee
// allocates by design — so the exemption is stated once, at the edge,
// instead of once per construct in the callee's subtree.
func (p *ModulePass) EdgeSuppressed(pos token.Pos) bool {
	pp := p.Module.Fset.Position(pos)
	if s := p.sups[supKey{pp.Filename, pp.Line, p.analyzer}]; s != nil {
		s.used = true
		return true
	}
	return false
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	reportf(p.Module.Fset, p.out, p.analyzer, pos, format, args...)
}

// subPass builds a per-package Pass for the intra-function checkers
// (checkNoAllocFunc, checkDeterminismNode). Diagnostics land in out
// under this pass's analyzer name.
func (p *ModulePass) subPass(pkg *Package, out *[]Diagnostic) *Pass {
	return &Pass{
		Fset:     pkg.Fset,
		Path:     pkg.Path,
		Files:    pkg.Files,
		Info:     pkg.Info,
		analyzer: p.analyzer,
		out:      out,
	}
}
