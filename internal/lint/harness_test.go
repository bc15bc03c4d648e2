package lint_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"minicost/internal/lint"
)

// wantRe extracts `// want "regex"` expectation comments: each one demands
// exactly one diagnostic on its line whose message matches the regex.
var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// runAnalyzer type-checks the testdata package in dir (as import path
// pkgPath, so analyzers keyed on package identity can be exercised) and runs
// the single named analyzer over it, returning its findings.
func runAnalyzer(t *testing.T, analyzer, dir, pkgPath string) ([]lint.Diagnostic, *token.FileSet, []*ast.File) {
	t.Helper()
	fset, pkg, info, files := loadTestdata(t, dir, pkgPath)
	suite := analyzerSuite(t, analyzer)
	diags := suite.RunPackage(fset, pkgPath, pkg, info, files)
	diags = append(diags, suite.Finish(fset)...)
	return diags, fset, files
}

// loadTestdata parses and type-checks every Go file in dir, _test.go files
// included, as the package pkgPath.
func loadTestdata(t *testing.T, dir, pkgPath string) (*token.FileSet, *types.Package, *types.Info, []*ast.File) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	return fset, pkg, info, files
}

// analyzerSuite is a suite of the one named analyzer.
func analyzerSuite(t *testing.T, analyzer string) *lint.Suite {
	t.Helper()
	suite := &lint.Suite{}
	for _, a := range lint.NewSuite().Analyzers {
		if a.Name == analyzer {
			suite.Analyzers = append(suite.Analyzers, a)
		}
	}
	if len(suite.Analyzers) != 1 {
		t.Fatalf("analyzer %q not found", analyzer)
	}
	return suite
}

// checkExpectations matches findings against the `// want` comments:
// every want needs a matching diagnostic on its line, every diagnostic
// needs a want.
func checkExpectations(t *testing.T, diags []lint.Diagnostic, fset *token.FileSet, files []*ast.File) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, m[1], err)
					}
					wants[key{pos.Filename, pos.Line}] = append(wants[key{pos.Filename, pos.Line}], re)
				}
			}
		}
	}
	matched := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, re := range wants[k] {
			if !matched[re] && re.MatchString(d.Message) {
				matched[re] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var missing []string
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matched %q", k.file, k.line, re))
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
}

func testAnalyzer(t *testing.T, analyzer, pkgPath string) {
	diags, fset, files := runAnalyzer(t, analyzer, filepath.Join("testdata", analyzer), pkgPath)
	checkExpectations(t, diags, fset, files)
}

// Determinism rules key off the deterministic-package list, so the testdata
// package masquerades as internal/mdp.
func TestDeterminism(t *testing.T) { testAnalyzer(t, "determinism", "minicost/internal/mdp") }

// The determinism analyzer must stay silent outside the deterministic set,
// even on a file full of violations.
func TestDeterminismScopedToListedPackages(t *testing.T) {
	diags, _, _ := runAnalyzer(t, "determinism", filepath.Join("testdata", "determinism"), "minicost/internal/lint/testdata/notlisted")
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside the deterministic packages: %v", diags)
	}
}

func TestHotpath(t *testing.T) { testAnalyzer(t, "hotpath", "minicost/internal/lint/testdata/hotpath") }
func TestShardContract(t *testing.T) {
	testAnalyzer(t, "shardcontract", "minicost/internal/lint/testdata/shardcontract")
}
func TestObsNames(t *testing.T) {
	testAnalyzer(t, "obsnames", "minicost/internal/lint/testdata/obsnames")
}
func TestFloatCmp(t *testing.T) {
	testAnalyzer(t, "floatcmp", "minicost/internal/lint/testdata/floatcmp")
}

// The multiply-add rule is mat's and nn's; the testdata masquerades as mat.
func TestFMAContract(t *testing.T) { testAnalyzer(t, "fmacontract", "minicost/internal/mat") }

func TestFMAContractScopedToListedPackages(t *testing.T) {
	diags, _, _ := runAnalyzer(t, "fmacontract", filepath.Join("testdata", "fmacontract"), "minicost/internal/lint/testdata/notlisted")
	if len(diags) != 0 {
		t.Fatalf("fmacontract fired outside mat and nn: %v", diags)
	}
}

// RunTests is how minicost-vet reaches _test.go files: it reports the
// findings there — the oracle's two, the product added in place and the one
// stored first — and none of the non-test files',
// which RunPackage reports; a package the analyzer does not cover asks for
// no tests at all.
func TestFMAContractRunTests(t *testing.T) {
	const pkgPath = "minicost/internal/nn"
	fset, pkg, info, files := loadTestdata(t, filepath.Join("testdata", "fmacontract"), pkgPath)
	suite := lint.NewSuite()
	diags := suite.RunTests(fset, pkgPath, pkg, info, files)
	if len(diags) != 2 {
		t.Fatalf("RunTests found %v, want the two fmacontract findings in oracle_test.go", diags)
	}
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, "oracle_test.go") || d.Analyzer != "fmacontract" {
			t.Fatalf("RunTests found %v, want the two fmacontract findings in oracle_test.go", diags)
		}
	}
	if suite.WantsTests("minicost/internal/rl") {
		t.Fatal("the suite asks for rl's test files")
	}
}
