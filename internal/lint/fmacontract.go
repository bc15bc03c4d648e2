package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FMAPackages are the import paths whose multiply-adds the fmacontract
// analyzer holds to an explicit rounding, _test.go files included: the
// kernels and the scalar oracles they are held to bit for bit.
var FMAPackages = map[string]bool{
	"minicost/internal/mat": true,
	"minicost/internal/nn":  true,
}

// newFMAContract builds the fmacontract analyzer. The Go spec lets a
// compiler fuse x*y + z into one rounding, and gc does so on some
// architectures (arm64) and not on others (amd64), so a plain
// multiply-add is a different number on different machines. In the
// FMAPackages every floating-point product that is an operand of +, -, +=
// or -= must say which number it means:
//
//   - math.FMA(x, y, z): fused, one rounding — the contract of every kernel
//     term and of the oracles that pin them (DESIGN §10);
//   - float64(x*y) + z: the product rounded first, which the spec forbids
//     the compiler to fuse — for arithmetic no kernel shares (the
//     optimizer step, norms).
//
// Constant products are exact and exempt. The spec lets the compiler fuse
// across statements too, so a product stored in a local (p := x*y or
// p = x*y) is held to the same rule when p is later an operand of +, -, +=
// or -= in the function.
func newFMAContract() *Analyzer {
	a := &Analyzer{
		Name:  "fmacontract",
		Doc:   "multiply-adds in mat and nn are written as math.FMA or with the product explicitly rounded",
		Tests: func(pkgPath string) bool { return FMAPackages[pkgPath] },
	}
	a.Run = func(pass *Pass) {
		if !FMAPackages[pass.PkgPath] {
			return
		}
		// Products stored in locals, and where each local is an addend.
		type store struct {
			v    types.Object
			prod *ast.BinaryExpr
		}
		var stores []store
		addends := map[types.Object][]token.Pos{}
		local := func(e ast.Expr) types.Object {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if v, ok := pass.Info.ObjectOf(id).(*types.Var); ok && v.Parent() != pass.Pkg.Scope() {
					return v
				}
			}
			return nil
		}
		operand := func(e ast.Expr) {
			if m := unroundedProduct(pass, e); m != nil {
				pass.Reportf(m.OpPos,
					"floating-point product added unrounded: the compiler may fuse it on some architectures; write math.FMA(x, y, z) to fuse or float64(x*y) to round first")
			}
			if v := local(e); v != nil {
				addends[v] = append(addends[v], e.Pos())
			}
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op == token.ADD || n.Op == token.SUB {
						operand(n.X)
						operand(n.Y)
					}
				case *ast.AssignStmt:
					switch {
					case n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN:
						operand(n.Lhs[0])
						operand(n.Rhs[0])
					case len(n.Lhs) == len(n.Rhs): // = and :=
						for i, rhs := range n.Rhs {
							if m, v := unroundedProduct(pass, rhs), local(n.Lhs[i]); m != nil && v != nil {
								stores = append(stores, store{v, m})
							}
						}
					}
				}
				return true
			})
		}
		for _, s := range stores {
			for _, pos := range addends[s.v] {
				if pos > s.prod.Pos() {
					pass.Reportf(s.prod.OpPos,
						"floating-point product stored in %s and added in a later statement: the compiler may fuse across statements; write math.FMA(x, y, z) to fuse or float64(x*y) to round first", s.v.Name())
					break
				}
			}
		}
	}
	return a
}

// unroundedProduct returns e if it is a non-constant floating-point product
// (parentheses aside), nil otherwise.
func unroundedProduct(pass *Pass, e ast.Expr) *ast.BinaryExpr {
	m, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || m.Op != token.MUL || !isFloat(pass.Info.TypeOf(m)) || isConstExpr(pass, m) {
		return nil
	}
	return m
}
