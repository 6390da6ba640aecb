package lint

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
)

// Run lints every package of the module containing root with every
// analyzer and returns the surviving diagnostics sorted by position.
// Packages that fail to load are reported as diagnostics under the
// "ldlint" name rather than aborting the run.
func Run(root string) ([]Diagnostic, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := WalkPackages(loader.ModuleDir)
	if err != nil {
		return nil, err
	}
	var (
		diags []Diagnostic
		pkgs  []*Package
	)
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			diags = append(diags, Diagnostic{Analyzer: "ldlint",
				Pos: token.Position{Filename: filepath.Join(dir, "(package)")}, Message: err.Error()})
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	return analyze(NewModule(loader.Fset, pkgs), diags), nil
}

// Print writes diagnostics grouped by package directory.
func Print(w io.Writer, diags []Diagnostic) {
	lastDir := ""
	for _, d := range diags {
		dir := filepath.Dir(d.Pos.Filename)
		if dir != lastDir {
			fmt.Fprintf(w, "# %s\n", dir)
			lastDir = dir
		}
		fmt.Fprintln(w, d.String())
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(w, "ldlint: %d issue(s)\n", n)
	}
}

// Main is the ldlint entry point; it returns the process exit code
// (0 clean, 1 diagnostics found, 2 usage or load failure).
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ldlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list = fs.Bool("list", false, "list analyzers and exit")
		root = fs.String("C", ".", "directory to lint (module root is located from here)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, `usage: ldlint [-list] [-C dir] [./...]

ldlint statically enforces this repository's performance and
determinism contracts over every package in the module, with every
analyzer. It exits non-zero when any contract is violated.

Suppress a finding with an explicit reason on the same line or the
line above — or, for noallocprop, on a call site to cut propagation
at a deliberate boundary:

	//ldlint:ignore <analyzer> <reason>

Mark a function as a zero-allocation hot path with //ldlint:noalloc
in its doc comment; opt a package (or a single function) into the
determinism contract with //ldlint:deterministic.

Flags:
`)
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nAnalyzers:\n")
		writeAnalyzerList(stderr)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		writeAnalyzerList(stdout)
		return 0
	}
	for _, arg := range fs.Args() {
		// Positional patterns exist for go-tool symmetry; the driver
		// always walks the whole module, which is what every pattern in
		// this repo ("./...") means.
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(stderr, "ldlint: unsupported package pattern %q (only ./... )\n", arg)
			return 2
		}
	}
	diags, err := Run(*root)
	if err != nil {
		fmt.Fprintf(stderr, "ldlint: %v\n", err)
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	Print(stdout, diags)
	return 1
}

func writeAnalyzerList(w io.Writer) {
	for _, a := range All {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
}
