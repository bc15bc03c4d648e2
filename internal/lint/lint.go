// Package lint houses the minicost-vet analyzer suite: six zero-dependency
// static analyzers (stdlib go/ast + go/types only) that enforce the repo's
// hand-maintained invariants at lint time instead of runtime:
//
//   - determinism: no wall-clock reads, no math/rand, no map-iteration
//     order in the deterministic packages (DESIGN.md §14.1).
//   - hotpath: functions annotated //minicost:hotpath stay allocation-free
//     at the line level (DESIGN.md §14.2).
//   - shardcontract: par.For / par.ForChunked / par.ForBatched worker
//     bodies write only through indexed output slices (DESIGN.md §14.3).
//   - obsnames: metric registrations use constant, grammar-valid, unique
//     names (DESIGN.md §14.4).
//   - floatcmp: no ==/!= between non-constant floating-point operands
//     (DESIGN.md §14.5).
//   - fmacontract: in mat and nn, tests included, a floating-point product
//     is added only through math.FMA or after an explicit float64()
//     rounding (DESIGN.md §14.6).
//
// The driver lives in cmd/minicost-vet. Analyzers operate on one
// type-checked package at a time (a Pass); analyzers that need whole-repo
// state (obsnames) accumulate across passes and report from Finish.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive names recognized in comments. A directive suppresses the
// matching analyzer's findings on its own line and on the line immediately
// below it, so both trailing-comment and standalone-comment placements work:
//
//	t0 := time.Now() //minicost:allow-wallclock timing is the measurement
//
//	//minicost:allow-maprange keys are sorted before use
//	for k := range m {
const (
	DirectiveAllowWallclock = "allow-wallclock"
	DirectiveAllowMapRange  = "allow-maprange"
	DirectiveAllowFloatCmp  = "allow-floatcmp"
	// DirectiveHotpath marks a function declaration (in its doc comment) as
	// a hot-path function the hotpath analyzer must keep allocation-free.
	DirectiveHotpath = "hotpath"
)

// directivePrefix introduces every minicost directive comment.
const directivePrefix = "//minicost:"

// DeterministicPackages are the import paths whose decision math must be
// bit-for-bit reproducible across runs and engines; the determinism
// analyzer applies only to these.
var DeterministicPackages = map[string]bool{
	"minicost/internal/mat":         true,
	"minicost/internal/nn":          true,
	"minicost/internal/mdp":         true,
	"minicost/internal/rl":          true,
	"minicost/internal/policy":      true,
	"minicost/internal/costmodel":   true,
	"minicost/internal/trace":       true,
	"minicost/internal/rng":         true,
	"minicost/internal/experiments": true,
	"minicost/internal/aggregate":   true,
	"minicost/internal/forecast":    true,
	"minicost/internal/pricing":     true,
	"minicost/internal/online":      true,
	"minicost/internal/core":        true,
}

// Diagnostic is one finding, positioned in the shared FileSet.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Fset    *token.FileSet
	PkgPath string // import path the analyzers key policy off (testdata overrides it)
	Pkg     *types.Package
	Info    *types.Info
	Files   []*ast.File

	directives map[string]map[string]bool // directive name -> set of "file:line" keys it suppresses
	report     func(Diagnostic)
	analyzer   string
}

// Reportf records a finding at pos unless a matching suppression directive
// covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether directive dir covers pos (same line as the
// directive comment or the line directly after it, in the same file).
func (p *Pass) Suppressed(dir string, pos token.Pos) bool {
	lines := p.directives[dir]
	if lines == nil {
		return false
	}
	return lines[lineKey(p.Fset.Position(pos))]
}

// lineKey identifies a (file, line) pair; filenames disambiguate across the
// files of one pass.
func lineKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// Analyzer is one named check over a Pass. Run is called once per package;
// Finish (optional) once after every package, for cross-package analyzers.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// Finish reports whole-run findings (e.g. duplicate metric names across
	// packages). The fset is the shared one every Pass used.
	Finish func(fset *token.FileSet, report func(Diagnostic))
	// Tests (optional) reports whether the analyzer also checks the named
	// package's _test.go files (RunTests); without it an analyzer sees
	// non-test files only.
	Tests func(pkgPath string) bool
}

// Suite is a fresh, stateful set of the six analyzers. Create one per run:
// cross-package analyzers keep accumulation state inside the closure.
type Suite struct {
	Analyzers []*Analyzer
}

// NewSuite returns the six minicost-vet analyzers with fresh state.
func NewSuite() *Suite {
	return &Suite{Analyzers: []*Analyzer{
		newDeterminism(),
		newHotpath(),
		newShardContract(),
		newObsNames(),
		newFloatCmp(),
		newFMAContract(),
	}}
}

// RunPackage runs every analyzer in the suite over one type-checked package
// and returns the findings sorted by position.
func (s *Suite) RunPackage(fset *token.FileSet, pkgPath string, pkg *types.Package, info *types.Info, files []*ast.File) []Diagnostic {
	return s.run(s.Analyzers, fset, pkgPath, pkg, info, files)
}

// WantsTests reports whether any analyzer checks pkgPath's _test.go files.
func (s *Suite) WantsTests(pkgPath string) bool {
	return len(s.testAnalyzers(pkgPath)) > 0
}

// RunTests runs the analyzers that check pkgPath's _test.go files over the
// package type-checked with them (files holds its non-test and test files
// alike) and returns their findings in the test files, sorted by position;
// RunPackage has reported the rest.
func (s *Suite) RunTests(fset *token.FileSet, pkgPath string, pkg *types.Package, info *types.Info, files []*ast.File) []Diagnostic {
	var diags []Diagnostic
	for _, d := range s.run(s.testAnalyzers(pkgPath), fset, pkgPath, pkg, info, files) {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			diags = append(diags, d)
		}
	}
	return diags
}

func (s *Suite) testAnalyzers(pkgPath string) []*Analyzer {
	var out []*Analyzer
	for _, a := range s.Analyzers {
		if a.Tests != nil && a.Tests(pkgPath) {
			out = append(out, a)
		}
	}
	return out
}

func (s *Suite) run(analyzers []*Analyzer, fset *token.FileSet, pkgPath string, pkg *types.Package, info *types.Info, files []*ast.File) []Diagnostic {
	var diags []Diagnostic
	dirs := collectDirectives(fset, files)
	for _, a := range analyzers {
		pass := &Pass{
			Fset:       fset,
			PkgPath:    pkgPath,
			Pkg:        pkg,
			Info:       info,
			Files:      files,
			directives: dirs,
			analyzer:   a.Name,
			report:     func(d Diagnostic) { diags = append(diags, d) },
		}
		a.Run(pass)
	}
	SortDiagnostics(diags)
	return diags
}

// Finish runs every analyzer's cross-package hook and returns the findings.
func (s *Suite) Finish(fset *token.FileSet) []Diagnostic {
	var diags []Diagnostic
	for _, a := range s.Analyzers {
		if a.Finish != nil {
			a.Finish(fset, func(d Diagnostic) { diags = append(diags, d) })
		}
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
}

// collectDirectives scans every comment in the package for
// //minicost:<name> directives and records, per directive, the set of
// (file:line) keys it suppresses: the directive's own line plus the next,
// so both trailing and standalone directive comments work.
func collectDirectives(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := directiveName(c.Text)
				if name == "" {
					continue
				}
				set := out[name]
				if set == nil {
					set = make(map[string]bool)
					out[name] = set
				}
				pos := fset.Position(c.Pos())
				set[lineKey(pos)] = true
				set[fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = true
			}
		}
	}
	return out
}

// HasDirective reports whether the comment group contains the given
// //minicost: directive (used for the hotpath function annotation).
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if directiveName(c.Text) == name {
			return true
		}
	}
	return false
}

// directiveName extracts the directive name from a comment line, or "".
// Directives are exact-prefix comments: `//minicost:<name>` optionally
// followed by whitespace and free-form justification text.
func directiveName(text string) string {
	if !strings.HasPrefix(text, directivePrefix) {
		return ""
	}
	rest := text[len(directivePrefix):]
	if i := strings.IndexFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' }); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// --- shared type helpers ---

// calleeObject resolves the object a call expression invokes, unwrapping
// parens. Returns nil for type conversions, builtins resolved elsewhere,
// and indirect calls through variables.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// rootIdent walks to the base identifier of an lvalue expression
// (unwrapping index, selector, star and paren expressions). It also reports
// whether the path from the root to the full expression crosses an index
// expression — the shard-contract's "write through an element" test.
func rootIdent(expr ast.Expr) (id *ast.Ident, indexed bool) {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e, indexed
		case *ast.IndexExpr:
			indexed = true
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil, indexed
		}
	}
}

// isInterface reports whether t's underlying type is an interface.
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isFloat reports whether t's underlying type has a floating-point kind.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
