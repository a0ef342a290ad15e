package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nonortho/internal/lint"
)

// writeFixture materialises a throwaway single-file module tree and
// returns diagnostics from running the given analyzer over it.
func runOnSource(t *testing.T, a *lint.Analyzer, relDir, src string) []lint.Diagnostic {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, filepath.FromSlash(relDir))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.NewLoader(root, "").Load("./" + relDir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return diags
}

// runOnTree is runOnSource for multi-package fixtures, so the
// interprocedural suppression semantics can be exercised end to end.
func runOnTree(t *testing.T, a *lint.Analyzer, files map[string]string, patterns ...string) []lint.Diagnostic {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := lint.NewLoader(root, "").Load(patterns...)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return diags
}

const accumSrc = `package fix

func sum(m map[int]float64) float64 {
	t := 0.0
	for _, v := range m {
		%s
		t += v
	}
	return t
}
`

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	src := strings.Replace(accumSrc, "%s", "//lint:ignore maporder fixture reason", 1)
	if diags := runOnSource(t, lint.Maporder, "pkg", src); len(diags) != 0 {
		t.Fatalf("suppressed run reported %v", diags)
	}
}

func TestIgnoreDirectiveNeedsReason(t *testing.T) {
	src := strings.Replace(accumSrc, "%s", "//lint:ignore maporder", 1)
	diags := runOnSource(t, lint.Maporder, "pkg", src)
	// The accumulation stays reported and the bare directive is flagged.
	var sawFinding, sawMalformed bool
	for _, d := range diags {
		switch d.Analyzer {
		case "maporder":
			sawFinding = true
		case "lintdirective":
			sawMalformed = strings.Contains(d.Message, "malformed")
		}
	}
	if !sawFinding || !sawMalformed {
		t.Fatalf("want finding + malformed-directive report, got %v", diags)
	}
}

func TestIgnoreDirectiveWrongAnalyzer(t *testing.T) {
	src := strings.Replace(accumSrc, "%s", "//lint:ignore detsource not the analyzer firing here", 1)
	diags := runOnSource(t, lint.Maporder, "pkg", src)
	var sawFinding, sawUnused bool
	for _, d := range diags {
		switch d.Analyzer {
		case "maporder":
			sawFinding = true
		case "lintdirective":
			sawUnused = strings.Contains(d.Message, "unused")
		}
	}
	if !sawFinding || !sawUnused {
		t.Fatalf("want finding + unused-directive report, got %v", diags)
	}
}

func TestUnusedIgnoreReported(t *testing.T) {
	src := `package fix

//lint:ignore maporder nothing here triggers it
func clean() {}
`
	diags := runOnSource(t, lint.Maporder, "pkg", src)
	if len(diags) != 1 || diags[0].Analyzer != "lintdirective" ||
		!strings.Contains(diags[0].Message, "unused") {
		t.Fatalf("want exactly one unused-directive report, got %v", diags)
	}
}

func TestIgnoreUnknownAnalyzerReported(t *testing.T) {
	src := `package fix

//lint:ignore maporderr typo in the analyzer name
func clean() {}
`
	diags := runOnSource(t, lint.Maporder, "pkg", src)
	if len(diags) != 1 || diags[0].Analyzer != "lintdirective" ||
		!strings.Contains(diags[0].Message, "unknown analyzer") {
		t.Fatalf("want exactly one unknown-analyzer report, got %v", diags)
	}
}

const wallHelperSrc = `package helper

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`

// TestInterproceduralSuppressionAtCallSite pins where an
// interprocedural finding is suppressed: at the sim-package call site,
// with a reason naming the sink.
func TestInterproceduralSuppressionAtCallSite(t *testing.T) {
	files := map[string]string{
		"helper/helper.go": wallHelperSrc,
		"internal/simuse/simuse.go": `package simuse

import "helper"

func run() int64 {
	//lint:ignore detsource boot banner only, reaches time.Now outside any cell
	return helper.Stamp()
}
`,
	}
	diags := runOnTree(t, lint.Detsource, files, "./helper", "./internal/simuse")
	if len(diags) != 0 {
		t.Fatalf("call-site suppression failed: %v", diags)
	}
}

// TestInterproceduralSuppressionNotAtHelper is the regression for the
// attribution rule: a directive at the helper's sink line covers
// nothing, because the finding lands at the call site — the directive
// is reported unused and the finding survives.
func TestInterproceduralSuppressionNotAtHelper(t *testing.T) {
	files := map[string]string{
		"helper/helper.go": `package helper

import "time"

func Stamp() int64 {
	//lint:ignore detsource findings land at sim call sites, not at time.Now
	return time.Now().UnixNano()
}
`,
		"internal/simuse/simuse.go": `package simuse

import "helper"

func run() int64 { return helper.Stamp() }
`,
	}
	diags := runOnTree(t, lint.Detsource, files, "./helper", "./internal/simuse")
	var sawFinding, sawUnused bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "detsource" &&
			strings.Contains(d.Message, "transitively reaches time.Now"):
			sawFinding = true
		case d.Analyzer == "lintdirective" && strings.Contains(d.Message, "unused"):
			sawUnused = true
		}
	}
	if !sawFinding || !sawUnused {
		t.Fatalf("want call-site finding + unused helper directive, got %v", diags)
	}
}

// TestSuppressionMustNameSink pins the sink-in-reason rule: a matching
// directive whose reason does not name the sink keeps the finding and
// flags the vague annotation.
func TestSuppressionMustNameSink(t *testing.T) {
	files := map[string]string{
		"helper/helper.go": wallHelperSrc,
		"internal/simuse/simuse.go": `package simuse

import "helper"

func run() int64 {
	//lint:ignore detsource legacy code, do not touch
	return helper.Stamp()
}
`,
	}
	diags := runOnTree(t, lint.Detsource, files, "./helper", "./internal/simuse")
	var sawFinding, sawVague bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "detsource":
			sawFinding = true
		case d.Analyzer == "lintdirective" &&
			strings.Contains(d.Message, "must name the suppressed sink"):
			sawVague = true
		}
	}
	if !sawFinding || !sawVague {
		t.Fatalf("want kept finding + vague-reason report, got %v", diags)
	}
}

// TestLoadLinksExternalTestsAgainstExportTest: an external test package
// that calls what export_test.go exports, on a value built by a module
// package importing the package under test, type-checks as go test links
// it, against the test-augmented package.
func TestLoadLinksExternalTestsAgainstExportTest(t *testing.T) {
	files := map[string]string{
		"lib/lib.go":         "package lib\n\ntype T struct{ n int }\n\nfunc New() *T { return &T{n: 1} }\n",
		"lib/export_test.go": "package lib\n\nfunc N(t *T) int { return t.n }\n",
		"lib/lib_test.go":    "package lib_test\n\nimport (\n\t\"testing\"\n\n\t\"lib\"\n\t\"user\"\n)\n\nfunc TestN(t *testing.T) { _ = lib.N(user.Make()) }\n",
		"user/user.go":       "package user\n\nimport \"lib\"\n\nfunc Make() *lib.T { return lib.New() }\n",
	}
	runOnTree(t, lint.Maporder, files, "./...")
}
