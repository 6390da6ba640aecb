// Package lint is ldlint's analyzer framework: a static analyzer built
// entirely on the stdlib toolchain (go/parser, go/ast, go/types with the
// source importer — no x/tools dependency), encoding the performance and
// determinism contracts the rest of this repository states in prose.
//
// It keeps only the checks no other gate makes. go vet, the
// AllocsPerRun guards, the race detector and the seeded simulation tests
// each see the paths they run; the analyzers here see every function on
// every build. The contracts enforced:
//
//   - noalloc: functions annotated //ldlint:noalloc must not contain
//     allocation-prone constructs (fmt/errors.New calls, string
//     concatenation, map/slice literals, make/new, mismatched append,
//     interface-boxing conversions, closures capturing mutated
//     variables, the address of a local leaving the call).
//   - noallocprop: neither may anything they call, reported with the
//     call path from the annotated root.
//   - determinism: seeded-impairment code (internal/netsim and packages
//     carrying a //ldlint:deterministic directive) must not read the
//     wall clock, schedule on it, use the global math/rand PRNG, or
//     iterate maps (nondeterministic order).
//
// DESIGN.md "Static analysis" records, analyzer by analyzer, what each
// one catches that no other gate does.
//
// A diagnostic may be silenced with an explicit, reasoned suppression
// on the same line or the line above:
//
//	//ldlint:ignore <analyzer> <reason>
//
// A suppression without a reason is itself a diagnostic: every
// exemption from a contract must say why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over the loaded module.
type Analyzer struct {
	// Name is the identifier //ldlint:ignore suppressions name.
	Name string
	// Doc is a one-line description shown by ldlint -list.
	Doc string
	// Run inspects the module and reports diagnostics via Reportf.
	Run func(*ModulePass)
}

// All lists every analyzer, in the order they run. Every run runs all
// of them.
var All = []*Analyzer{NoAlloc, NoAllocProp, Determinism}

// known reports whether name identifies an analyzer.
func known(name string) bool {
	for _, a := range All {
		if a.Name == name {
			return true
		}
	}
	return false
}

// perPackage adapts a check written against one package at a time.
func perPackage(run func(*Pass)) func(*ModulePass) {
	return func(p *ModulePass) {
		for _, pkg := range p.Module.Packages {
			run(p.subPass(pkg, p.out))
		}
	}
}

// Diagnostic is one finding, anchored to a file:line:col position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one typechecked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path
	Files []*ast.File
	Info  *types.Info

	analyzer string
	out      *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	reportf(p.Fset, p.out, p.analyzer, pos, format, args...)
}

// reportf is the shared diagnostic constructor for Pass and ModulePass.
func reportf(fset *token.FileSet, out *[]Diagnostic, analyzer string, pos token.Pos, format string, args ...any) {
	*out = append(*out, Diagnostic{
		Analyzer: analyzer,
		Pos:      fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Directive prefixes recognized in comments.
const (
	directiveNoAlloc       = "ldlint:noalloc"
	directiveDeterministic = "ldlint:deterministic"
)

// directiveText extracts the directive body from a comment line: for
// "//ldlint:ignore noalloc reason" it returns "ignore noalloc reason",
// true. Directives must start immediately after "//" (no space), the
// convention Go tooling uses to distinguish directives from prose.
func directiveText(c *ast.Comment) (string, bool) {
	return strings.CutPrefix(c.Text, "//ldlint:")
}

// hasDirective reports whether the comment group contains the given
// directive (e.g. "ldlint:noalloc"), matching the full word.
func hasDirective(g *ast.CommentGroup, directive string) bool {
	if g == nil {
		return false
	}
	want := strings.TrimPrefix(directive, "ldlint:")
	for _, c := range g.List {
		body, ok := directiveText(c)
		if !ok {
			continue
		}
		word, _, _ := strings.Cut(body, " ")
		if word == want {
			return true
		}
	}
	return false
}

// fileHasDirective reports whether the file carries the directive at
// file scope: in any comment group that is not a function's doc
// comment. Used for package-scope opt-ins like //ldlint:deterministic —
// a function-level form of the same directive opts in only that
// function, not the file around it.
func fileHasDirective(f *ast.File, directive string) bool {
	funcDocs := make(map[*ast.CommentGroup]bool)
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Doc != nil {
			funcDocs[fn.Doc] = true
		}
	}
	for _, g := range f.Comments {
		if !funcDocs[g] && hasDirective(g, directive) {
			return true
		}
	}
	return false
}

// suppression is one parsed //ldlint:ignore comment.
type suppression struct {
	analyzer string
	pos      token.Position
	used     bool
}

// collectSuppressions parses every //ldlint:ignore comment in the
// package. Malformed suppressions (no analyzer, unknown analyzer, or a
// missing reason) are reported as diagnostics under the "ldlint" name:
// an exemption that does not say why it is safe is not an exemption.
func collectSuppressions(fset *token.FileSet, files []*ast.File, out *[]Diagnostic) []*suppression {
	var sups []*suppression
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				body, ok := directiveText(c)
				if !ok || !strings.HasPrefix(body, "ignore") {
					continue
				}
				rest := strings.TrimPrefix(body, "ignore")
				if rest != "" && !strings.HasPrefix(rest, " ") {
					continue // e.g. a hypothetical ldlint:ignorefoo
				}
				pos := fset.Position(c.Pos())
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				switch {
				case name == "":
					*out = append(*out, Diagnostic{Analyzer: "ldlint", Pos: pos,
						Message: "ldlint:ignore needs an analyzer name and a reason"})
				case !known(name):
					*out = append(*out, Diagnostic{Analyzer: "ldlint", Pos: pos,
						Message: fmt.Sprintf("ldlint:ignore of unknown analyzer %q", name)})
				case strings.TrimSpace(reason) == "":
					*out = append(*out, Diagnostic{Analyzer: "ldlint", Pos: pos,
						Message: fmt.Sprintf("ldlint:ignore %s needs a reason", name)})
				default:
					sups = append(sups, &suppression{analyzer: name, pos: pos})
				}
			}
		}
	}
	return sups
}

// supKey addresses one (file, line, analyzer) suppression slot.
type supKey struct {
	file     string
	line     int
	analyzer string
}

// supIndex maps every line a suppression covers — its own line
// (trailing comment) and the line below (comment above the flagged
// statement) — to the suppression.
type supIndex map[supKey]*suppression

func buildSupIndex(sups []*suppression) supIndex {
	idx := make(supIndex, 2*len(sups))
	for _, s := range sups {
		idx[supKey{s.pos.Filename, s.pos.Line, s.analyzer}] = s
		idx[supKey{s.pos.Filename, s.pos.Line + 1, s.analyzer}] = s
	}
	return idx
}

// analyze runs every analyzer over m and returns the diagnostics that
// survive suppression, sorted by position, plus one for every
// suppression that silenced nothing: a stale exemption is a contract
// hole waiting to reopen, and the inventory of ignores only stays honest
// if rot is a diagnostic too.
func analyze(m *Module, diags []Diagnostic) []Diagnostic {
	var sups []*suppression
	for _, pkg := range m.Packages {
		sups = append(sups, collectSuppressions(pkg.Fset, pkg.Files, &diags)...)
	}
	idx := buildSupIndex(sups)
	pass := &ModulePass{Module: m, sups: idx, out: &diags}
	for _, a := range All {
		pass.analyzer = a.Name
		a.Run(pass)
	}
	kept := diags[:0]
	for _, d := range diags {
		if s := idx[supKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; s != nil {
			s.used = true
			continue
		}
		kept = append(kept, d)
	}
	for _, s := range sups {
		if !s.used {
			kept = append(kept, Diagnostic{Analyzer: "ldlint", Pos: s.pos,
				Message: fmt.Sprintf("unused ldlint:ignore %s: no %s diagnostic fires here; delete the stale suppression", s.analyzer, s.analyzer)})
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// RunPackage runs every analyzer over one loaded package as a
// self-contained module — the shape the golden fixture tests use.
func RunPackage(p *Package) []Diagnostic {
	return analyze(NewModule(p.Fset, []*Package{p}), nil)
}
