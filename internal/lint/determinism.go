package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the seeded-fault-model contract from the chaos
// harness: a link's per-packet fate sequence must be a pure function
// of its seed and the order datagrams arrive, so a chaos scenario
// replays bit-identically (TestImpairmentDeterministic and the five
// seeded chaostest scenarios depend on it). In scoped packages it
// forbids:
//
//   - time.Now and time.Since: wall-clock reads leak real time into
//     simulated behaviour;
//   - wall-clock timer scheduling (time.AfterFunc, time.Sleep,
//     time.NewTimer, time.Tick): since the virtual-clock netsim, all
//     delivery and retry timing must flow through an injected
//     vclock.Clock, so a SimClock can run it in simulated time —
//     clock.AfterFunc / clock.Sleep are interface method calls and
//     stay legal;
//   - the global math/rand PRNG (rand.Intn, rand.Float64, ...): it is
//     shared, unseeded state; constructors (rand.New, rand.NewSource,
//     rand.NewZipf) for per-impairer seeded PRNGs are the sanctioned
//     pattern;
//   - ranging over maps: iteration order is randomized per run, so any
//     map-range whose body feeds the fault sequence breaks seed
//     stability. Order-independent aggregations (stat sums, close-all
//     loops) carry a reasoned //ldlint:ignore.
//
// Scope: packages under ldplayer/internal/netsim, any package with a
// //ldlint:deterministic directive comment, and individual functions
// carrying the directive in their doc comment.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads and timers, global math/rand, and map iteration in seeded-fault-model packages",
	Run:  perPackage(runDeterminism),
}

// deterministicScopePrefix hardcodes the fault-model packages so the
// contract cannot be silently dropped by deleting a directive comment.
const deterministicScopePrefix = "ldplayer/internal/netsim"

// randConstructors are the math/rand package-level functions that build
// seeded per-instance PRNGs rather than touching the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 spellings
}

func runDeterminism(pass *Pass) {
	inScope := inDeterministicScope(pass.Path)
	if !inScope {
		for _, f := range pass.Files {
			if fileHasDirective(f, directiveDeterministic) {
				inScope = true
				break
			}
		}
	}
	for _, f := range pass.Files {
		if inScope {
			checkDeterminismNode(pass, f)
			continue
		}
		// Out-of-scope package: only functions that opt in individually.
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && hasDirective(fn.Doc, directiveDeterministic) {
				checkDeterminismNode(pass, fn.Body)
			}
		}
	}
}

// checkDeterminismNode applies the determinism construct rules to every
// node under root: a whole file, or an opted-in function body.
func checkDeterminismNode(pass *Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := packageLevelCallee(pass.Info, sel)
			if !ok {
				return true
			}
			switch {
			case pkgPath == "time" && (name == "Now" || name == "Since" || name == "Until"):
				pass.Reportf(n.Pos(), "time.%s reads the wall clock in deterministic fault-model code", name)
			case pkgPath == "time" && (name == "AfterFunc" || name == "Sleep" || name == "NewTimer" || name == "Tick"):
				pass.Reportf(n.Pos(), "time.%s schedules on the wall clock; thread an injected vclock.Clock and call its %s so simulated time can drive it", name, name)
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name]:
				pass.Reportf(n.Pos(), "rand.%s uses the global math/rand PRNG; draw from a seeded per-impairer *rand.Rand instead", name)
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration order is nondeterministic; it must not feed the fault sequence")
				}
			}
		}
		return true
	})
}

// inDeterministicScope reports whether the package at path is inside
// the hardcoded netsim fault-model scope.
func inDeterministicScope(path string) bool {
	return path == deterministicScopePrefix ||
		strings.HasPrefix(path, deterministicScopePrefix+"/")
}
