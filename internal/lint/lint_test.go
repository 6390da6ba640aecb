package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantMarker is one "// want <analyzer> <substring>" comment in a
// fixture file. A fixture line carrying a marker must produce exactly
// one diagnostic from that analyzer whose message contains the
// substring; a diagnostic with no marker, or a marker with no
// diagnostic, fails the test.
type wantMarker struct {
	file     string // basename
	line     int
	analyzer string
	substr   string
	matched  bool
}

func parseWantMarkers(pkg *Package) []*wantMarker {
	var markers []*wantMarker
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				name, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
				pos := pkg.Fset.Position(c.Pos())
				markers = append(markers, &wantMarker{
					file:     filepath.Base(pos.Filename),
					line:     pos.Line,
					analyzer: name,
					substr:   strings.TrimSpace(rest),
				})
			}
		}
	}
	return markers
}

// TestGoldenFixtures runs every analyzer over each fixture package
// under testdata/src and asserts the diagnostics line-by-line against
// the fixtures' "want" markers, in both directions.
func TestGoldenFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) < len(All) {
		t.Fatalf("found %d fixture packages, want at least %d (one per analyzer)", len(entries), len(All))
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", e.Name()))
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			markers := parseWantMarkers(pkg)
			if len(markers) == 0 {
				t.Fatalf("fixture %s has no want markers", e.Name())
			}
			for _, d := range RunPackage(pkg) {
				if !claimMarker(markers, d) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, m := range markers {
				if !m.matched {
					t.Errorf("%s:%d: missing %s diagnostic containing %q",
						m.file, m.line, m.analyzer, m.substr)
				}
			}
		})
	}
}

func claimMarker(markers []*wantMarker, d Diagnostic) bool {
	for _, m := range markers {
		if m.matched || m.line != d.Pos.Line || m.analyzer != d.Analyzer {
			continue
		}
		if m.file != filepath.Base(d.Pos.Filename) {
			continue
		}
		if !strings.Contains(d.Message, m.substr) {
			continue
		}
		m.matched = true
		return true
	}
	return false
}

// TestFixtureCoverage asserts that every analyzer has a golden fixture
// exercising it, keyed by directory name.
func TestFixtureCoverage(t *testing.T) {
	for _, a := range All {
		dir := filepath.Join("testdata", "src", a.Name)
		if _, err := os.Stat(filepath.Join(dir, a.Name+".go")); err != nil {
			t.Errorf("analyzer %s has no fixture package: %v", a.Name, err)
		}
	}
}

// TestRepoLintClean asserts the repository itself is lint-clean: every
// surviving construct is either contract-conformant or carries a
// reasoned //ldlint:ignore, and no suppression is stale. `make test`
// runs it, so it is the gate; `make lint` is the same check from the
// command line.
func TestRepoLintClean(t *testing.T) {
	if raceEnabled {
		t.Skip("whole-repo typecheck is CPU-heavy under race instrumentation; the non-race run of this test covers it")
	}
	diags, err := Run(".")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestMainSeededViolations runs the CLI entry point over the seeded
// mini-module and asserts the non-zero exit, the grouped output, and
// the malformed-suppression hygiene diagnostics.
func TestMainSeededViolations(t *testing.T) {
	out := runSeeded(t)
	for _, want := range []string{
		"fmt.Sprint allocates",
		"needs a reason",
		`unknown analyzer "nosuchanalyzer"`,
		"ldlint: 5 issue(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q; got:\n%s", want, out)
		}
	}
}

// TestMainInterprocSeeded pins, on the same seeded module, the
// multi-frame call-path message of the interprocedural analyzer and the
// unused-suppression finding for its stale ignore.
func TestMainInterprocSeeded(t *testing.T) {
	out := runSeeded(t)
	for _, want := range []string{
		"(on //ldlint:noalloc path seeded.entry -> seeded.mid -> seeded.deep)",
		"unused ldlint:ignore noallocprop",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q; got:\n%s", want, out)
		}
	}
}

// runSeeded runs ldlint over testdata/seeded, which must fail.
func runSeeded(t *testing.T) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-C", filepath.Join("testdata", "seeded"), "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	return stdout.String()
}

func TestMainList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-list"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	for _, a := range All {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
}

func TestMainBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-nosuchflag", "./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit code = %d, want 2", code)
	}
	stderr.Reset()
	if code := Main([]string{"some/pattern"}, &stdout, &stderr); code != 2 {
		t.Errorf("unsupported pattern: exit code = %d, want 2", code)
	}
}

// TestSuppressionScope pins the documented suppression grammar: an
// ignore silences its own line and the next line, for the named
// analyzer only.
func TestSuppressionScope(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "noalloc"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	// Dropping the suppressions must surface strictly more diagnostics.
	full := RunPackage(pkg)
	var fns []*ast.FuncDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "suppressed" {
				fns = append(fns, fn)
			}
		}
	}
	if len(fns) != 1 {
		t.Fatalf("fixture should have exactly one suppressed func, found %d", len(fns))
	}
	for _, d := range full {
		if line := d.Pos.Line; line > pkg.Fset.Position(fns[0].Pos()).Line && line < pkg.Fset.Position(fns[0].End()).Line {
			t.Errorf("diagnostic inside suppressed func body survived: %s", d)
		}
	}
}

// TestDiagnosticString pins the file:line:col rendering the editors and
// the Makefile target depend on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "noalloc", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: noalloc: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := fmt.Sprint(d); got != d.String() {
		t.Fatalf("fmt.Sprint(Diagnostic) = %q, want String() form", got)
	}
}
