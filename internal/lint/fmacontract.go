package lint

import (
	"go/ast"
	"go/token"
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
// Constant products are exact and exempt. The check is syntactic: a
// product stored in a variable and added in a later statement is not seen.
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
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op == token.ADD || n.Op == token.SUB {
						checkFMAOperand(pass, n.X)
						checkFMAOperand(pass, n.Y)
					}
				case *ast.AssignStmt:
					if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
						checkFMAOperand(pass, n.Rhs[0])
					}
				}
				return true
			})
		}
	}
	return a
}

// checkFMAOperand reports e if it is a non-constant floating-point product.
func checkFMAOperand(pass *Pass, e ast.Expr) {
	m, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || m.Op != token.MUL || !isFloat(pass.Info.TypeOf(m)) || isConstExpr(pass, m) {
		return
	}
	pass.Reportf(m.OpPos,
		"floating-point product added unrounded: the compiler may fuse it on some architectures; write math.FMA(x, y, z) to fuse or float64(x*y) to round first")
}
