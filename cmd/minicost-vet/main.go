// Command minicost-vet runs the repo's invariant analyzers (internal/lint)
// over Go packages and exits non-zero on any finding. It is a
// zero-dependency analyzer driver: package discovery shells out to
// `go list -json`, parsing and type-checking are stdlib go/parser +
// go/types with the source-mode importer, so the tool builds and runs with
// an empty go.mod and a cold module cache.
//
// Usage:
//
//	minicost-vet [packages]
//
// With no arguments it analyzes ./... from the current directory. Only
// non-test files are analyzed — the bitwise-equivalence helpers and other
// test-only code are exempt by construction — except by an analyzer that
// asks for a package's in-package _test.go files too (fmacontract in mat and
// nn, whose tests hold the kernels' oracles).
//
// Exit status: 0 clean, 1 findings, 2 operational failure (unparseable or
// untypeable source, go list failure).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"minicost/internal/lint"
)

// listedPackage is the subset of `go list -json` output the driver needs.
type listedPackage struct {
	ImportPath  string
	Dir         string
	GoFiles     []string
	TestGoFiles []string
}

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minicost-vet:", err)
		os.Exit(2)
	}

	fset := token.NewFileSet()
	// The source-mode importer type-checks every import (stdlib included)
	// from source, so the driver needs no compiled export data and no
	// modules beyond the one under analysis. One instance caches packages
	// across the whole run.
	imp := importer.ForCompiler(fset, "source", nil)
	suite := lint.NewSuite()

	var diags []lint.Diagnostic
	failed := false
	for _, pkg := range pkgs {
		if len(pkg.GoFiles) == 0 {
			continue
		}
		files, ok := parseFiles(fset, pkg.Dir, pkg.GoFiles)
		if !ok {
			failed = true
			continue
		}
		tpkg, info, ok := check(fset, imp, pkg.ImportPath, files)
		if !ok {
			failed = true
			continue
		}
		diags = append(diags, suite.RunPackage(fset, pkg.ImportPath, tpkg, info, files)...)
		if len(pkg.TestGoFiles) == 0 || !suite.WantsTests(pkg.ImportPath) {
			continue
		}
		tests, ok := parseFiles(fset, pkg.Dir, pkg.TestGoFiles)
		if !ok {
			failed = true
			continue
		}
		files = append(files, tests...)
		if tpkg, info, ok = check(fset, imp, pkg.ImportPath, files); !ok {
			failed = true
			continue
		}
		diags = append(diags, suite.RunTests(fset, pkg.ImportPath, tpkg, info, files)...)
	}
	diags = append(diags, suite.Finish(fset)...)
	lint.SortDiagnostics(diags)
	for _, d := range diags {
		fmt.Println(d)
	}
	switch {
	case failed:
		os.Exit(2)
	case len(diags) > 0:
		os.Exit(1)
	}
}

// parseFiles parses the named files of dir, reporting failures on stderr.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, bool) {
	files := make([]*ast.File, 0, len(names))
	ok := true
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "minicost-vet:", err)
			ok = false
			continue
		}
		files = append(files, f)
	}
	return files, ok
}

// check type-checks files as the package path, reporting failures on stderr.
func check(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, bool) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "minicost-vet: %s: %v\n", path, err)
		return nil, nil, false
	}
	return pkg, info, true
}

// goList resolves package patterns to their directories and files with
// `go list -json`, the same view the build uses (build tags, GOARCH and
// ignored files already applied).
func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
