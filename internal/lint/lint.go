// Package lint is the project-specific static-analysis suite behind
// cmd/dcnlint. It machine-enforces the determinism and unit-safety
// invariants the simulator's golden tables depend on but that no stock
// tool checks: no wall-clock or global randomness in simulation code
// (detsource), no order-dependent work inside map iteration (maporder),
// no mixing of dBm and milliwatt quantities in arithmetic (dbmunits),
// concurrency confined to internal/parallel (confinedgo), every RNG
// seeded from the cell's (config, seed) tuple (seedtaint), no
// interest-bucket edits while a frozen delivery set is live
// (deliveryfreeze), and topology.Snapshot immutability after
// construction (snapfreeze).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a type-checked Pass — but is
// built on the standard library alone (go/parser, go/types and the
// source importer), so the gate needs no module downloads.
//
// # Interprocedural analysis
//
// RunAnalyzers builds one Module over every loaded package: a
// conservative call graph (static calls exact through go/types;
// interface and function-value calls over-approximated by signature,
// pruned to the caller's import closure) plus per-function summaries
// computed to fixed point. detsource and seedtaint flag sim-package
// calls into helper chains that transitively reach a nondeterminism
// sink, printing the path; dbmunits classifies neutral-named helpers by
// their return units. Summaries never propagate out of
// simulation packages (the sink is flagged there directly), the
// quarantined packages (internal/watchdog and friends use the wall
// clock by charter), or test files.
//
// # Suppression
//
// A deliberate exception to any analyzer is annotated at the offending
// line (or the line directly above it):
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; an ignore directive without one is itself
// reported, as is one naming an unknown analyzer or one that suppresses
// nothing. An interprocedural finding is suppressed at the call site it
// is reported at, and its reason must name the sink being waived
// (time.Now, rand.NewSource, ...) so annotations state what they
// exempt.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. It is stateless: Run is invoked
// once per package with a fully type-checked Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports violations on the pass. Returning an error aborts the
	// whole lint run (reserved for internal failures, not findings).
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the slash-separated import path of the package under
	// analysis (test variants keep the base package's path, so
	// path-scoped analyzers treat a package and its tests alike).
	Path string
	// Module is the whole-program call graph over every package in the
	// run, for the interprocedural checks. It only spans the loaded
	// packages: a partial load degrades gracefully to intra-procedural
	// analysis.
	Module *Module

	diags *[]Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Sink, when set, names the root cause an interprocedural finding
	// bottoms out in (time.Now, rand.NewSource, Core.Release, NearRow).
	// A //lint:ignore suppressing such a finding must name the sink in
	// its reason, so annotations state what they are waiving.
	Sink string
	// CallPath is the printed helper chain of an interprocedural
	// finding, outermost callee first, for machine consumers (-json).
	CallPath []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportSink records a violation rooted in a named sink, optionally
// with the call path that reaches it. Suppressing it requires the
// //lint:ignore reason to name the sink.
func (p *Pass) reportSink(pos token.Pos, sink string, callPath []string, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Sink:     sink,
		CallPath: callPath,
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers []string // empty means the directive was malformed
	hasReason bool
	reason    string
	pos       token.Pos
	used      bool
}

// suppressor indexes the //lint:ignore directives of one package and
// filters diagnostics through them.
type suppressor struct {
	fset *token.FileSet
	// byLine maps file:line to the directive covering that line. A
	// directive covers its own line and, when it stands alone, the line
	// below it — the two places a human writes the annotation.
	byLine map[string]*ignoreDirective
	all    []*ignoreDirective
}

func newSuppressor(fset *token.FileSet, files []*ast.File) *suppressor {
	s := &suppressor{fset: fset, byLine: map[string]*ignoreDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				d := &ignoreDirective{pos: c.Pos()}
				fields := strings.Fields(text)
				if len(fields) > 0 {
					d.analyzers = strings.Split(fields[0], ",")
					d.hasReason = len(fields) > 1
					d.reason = strings.Join(fields[1:], " ")
				}
				s.all = append(s.all, d)
				pos := fset.Position(c.Pos())
				s.byLine[key(pos.Filename, pos.Line)] = d
				s.byLine[key(pos.Filename, pos.Line+1)] = d
			}
		}
	}
	return s
}

func key(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// filter drops suppressed diagnostics and appends a finding for every
// malformed, unknown-analyzer or unused directive, so suppressions can
// never silently rot.
func (s *suppressor) filter(diags []Diagnostic) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		dir := s.byLine[key(d.Pos.Filename, d.Pos.Line)]
		if dir != nil && dir.hasReason && contains(dir.analyzers, d.Analyzer) {
			dir.used = true
			if d.Sink == "" || strings.Contains(dir.reason, d.Sink) {
				continue
			}
			// The directive matches but its reason does not say what it
			// waives: keep the finding and flag the vague annotation.
			kept = append(kept, d, Diagnostic{
				Pos:      s.fset.Position(dir.pos),
				Analyzer: "lintdirective",
				Message: fmt.Sprintf("//lint:ignore %s must name the suppressed sink %q in its reason",
					d.Analyzer, d.Sink),
			})
			continue
		}
		kept = append(kept, d)
	}
	for _, dir := range s.all {
		switch {
		case len(dir.analyzers) == 0 || !dir.hasReason:
			kept = append(kept, Diagnostic{
				Pos:      s.fset.Position(dir.pos),
				Analyzer: "lintdirective",
				Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
			})
		case unknownAnalyzer(dir.analyzers) != "":
			kept = append(kept, Diagnostic{
				Pos:      s.fset.Position(dir.pos),
				Analyzer: "lintdirective",
				Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q (see dcnlint -list)",
					unknownAnalyzer(dir.analyzers)),
			})
		case !dir.used:
			kept = append(kept, Diagnostic{
				Pos:      s.fset.Position(dir.pos),
				Analyzer: "lintdirective",
				Message: fmt.Sprintf("unused //lint:ignore %s: nothing was reported here",
					strings.Join(dir.analyzers, ",")),
			})
		}
	}
	return kept
}

// unknownAnalyzer returns the first name that resolves to no registered
// analyzer ("lintdirective" itself is addressable), or "".
func unknownAnalyzer(names []string) string {
	for _, name := range names {
		if name != "lintdirective" && ByName(name) == nil {
			return name
		}
	}
	return ""
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving (non-suppressed) diagnostics in file/line order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	module := newModule(pkgs)
	var all []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Path:      pkg.Path,
				Module:    module,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		all = append(all, newSuppressor(pkg.Fset, pkg.Files).filter(diags)...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos.Filename != all[j].Pos.Filename {
			return all[i].Pos.Filename < all[j].Pos.Filename
		}
		if all[i].Pos.Line != all[j].Pos.Line {
			return all[i].Pos.Line < all[j].Pos.Line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}
