package analysis

import (
	"go/ast"
	"go/types"
)

// Confine keeps concurrency inside the few packages built for it. A
// `go` statement is allowed only in the worker pool
// (repro/internal/parallel) and in package main: every library fan-out
// goes through the pool, whose ordered merge is what keeps Train and
// Match bit-identical at every worker count, and only a command owns
// a process-lifetime goroutine such as a listener. A sync.Mutex or
// sync.RWMutex is allowed only in repro/internal/memo (the shard lock)
// and repro/internal/serve (the registry's writer lock). Neither
// critical section can reach the other lock, so no lock-order cycle
// can form; DESIGN.md states the argument per site.
//
// The rule is structural: every mention of the mutex type is reported,
// whether it declares a struct field, an embedded field, a package
// variable or a local. Code elsewhere that needs shared mutable state
// uses a memo.Table or a result slot of the pool. The allowlists are
// constants, not flags, so widening one is a reviewed edit here.
var Confine = &Analyzer{
	Name: "confine",
	Doc:  "go statements only in internal/parallel and package main; sync mutexes only in internal/memo and internal/serve",
	Run:  runConfine,
}

// goAllowed reports whether pkg may contain go statements.
func goAllowed(pkg *types.Package) bool {
	return pkg.Name() == "main" || pkg.Path() == "repro/internal/parallel"
}

// mutexAllowed reports whether pkg may declare sync mutexes.
func mutexAllowed(pkg *types.Package) bool {
	switch pkg.Path() {
	case "repro/internal/memo", "repro/internal/serve":
		return true
	}
	return false
}

func runConfine(pass *Pass) {
	allowGo, allowMutex := goAllowed(pass.Pkg), mutexAllowed(pass.Pkg)
	if allowGo && allowMutex {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var id *ast.Ident
			switch n := n.(type) {
			case *ast.GoStmt:
				if !allowGo {
					pass.Reportf(n.Pos(), "go statement outside internal/parallel and package main; fan out through parallel.Map or parallel.ForEach")
				}
				return true
			case *ast.SelectorExpr:
				id = n.Sel
			case *ast.Ident:
				id = n // a dot-imported Mutex
			default:
				return true
			}
			if name, ok := syncMutexType(pass.Info.Uses[id]); ok && !allowMutex {
				pass.Reportf(n.Pos(), "sync.%s outside internal/memo and internal/serve; share state through a memo.Table or the pool's result slots", name)
				return false
			}
			return true
		})
	}
}

// syncMutexType reports whether obj is the type sync.Mutex or
// sync.RWMutex, and which.
func syncMutexType(obj types.Object) (string, bool) {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.Pkg() == nil || tn.Pkg().Path() != "sync" {
		return "", false
	}
	return tn.Name(), tn.Name() == "Mutex" || tn.Name() == "RWMutex"
}
