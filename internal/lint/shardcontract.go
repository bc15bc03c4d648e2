package lint

import (
	"go/ast"
	"go/types"
)

// newShardContract builds the shardcontract analyzer. Work split across
// files, shards and A3C workers gives the same result at any worker count
// only because every par worker body follows the shard-outputs-only
// contract (DESIGN.md §13): a worker may write exclusively through indexed
// elements of captured output slices (out[i] = v, outs[i][d] = v,
// e.dps[i] = v), never to a captured scalar, struct field, or pointee —
// those writes race or make the result depend on goroutine interleaving.
//
// The analyzer inspects every function-literal worker body passed to
// par.For, par.ForChunked, par.ForBatched, or par.ForShards and flags
// assignments and ++/-- statements whose target's root identifier is
// captured from the enclosing function without the write path crossing an
// index expression.
func newShardContract() *Analyzer {
	a := &Analyzer{
		Name: "shardcontract",
		Doc:  "par worker bodies may write captured state only through indexed output slices",
	}
	a.Run = func(pass *Pass) {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObject(pass.Info, call)
				isParFor := false
				for _, fn := range [...]string{"For", "ForChunked", "ForBatched", "ForShards"} {
					if isPkgFunc(obj, "minicost/internal/par", fn) {
						isParFor = true
					}
				}
				if !isParFor || len(call.Args) == 0 {
					return true
				}
				// The worker body is the trailing func-literal argument; a
				// named function or method value cannot capture loop state
				// introduced at this call site, so only literals are checked.
				lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
				if !ok {
					return true
				}
				checkWorkerBody(pass, lit)
				return true
			})
		}
	}
	return a
}

func checkWorkerBody(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literals (e.g. a deferred cleanup) judged by their own par call, if any
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkWorkerWrite(pass, lit, lhs)
			}
		case *ast.IncDecStmt:
			checkWorkerWrite(pass, lit, st.X)
		}
		return true
	})
}

// checkWorkerWrite flags lhs when it writes a captured variable without
// indexing into it.
func checkWorkerWrite(pass *Pass, lit *ast.FuncLit, lhs ast.Expr) {
	root, indexed := rootIdent(lhs)
	if root == nil || root.Name == "_" || indexed {
		return
	}
	v, ok := pass.Info.Uses[root].(*types.Var)
	if !ok {
		return
	}
	if pass.Pkg != nil && v.Parent() == pass.Pkg.Scope() {
		// Package-level state: still a violation — shared across workers.
		pass.Reportf(lhs.Pos(),
			"par worker writes package-level %q directly; shard-outputs-only contract requires indexed writes to an output slice", root.Name)
		return
	}
	if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
		return // declared inside the worker body (or a parameter of it)
	}
	pass.Reportf(lhs.Pos(),
		"par worker writes captured %q directly; shard-outputs-only contract requires indexed writes to an output slice", root.Name)
}
