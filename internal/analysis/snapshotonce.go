package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotOnce enforces the copy-on-write registry's read contract:
// code reachable from an HTTP handler loads the atomic.Pointer
// snapshot at most once per request. A handler that (transitively)
// calls Load twice can observe two different registry generations in
// one request — exactly the torn-read class the hot-swap race hammer
// only probabilistically catches — so the fix is always to load once
// at the top and pass the snapshot down.
//
// Handlers are recognized by shape: a declared function or method
// taking (http.ResponseWriter, *http.Request) and returning nothing.
// Load counting is interprocedural over the static call graph with
// closure bodies included, and a Load inside a loop, or inside a
// function literal handed to a call (a fan-out's per-element body),
// counts as many.
// Middleware that deliberately re-reads (e.g. a metrics wrapper
// comparing generations) suppresses with //lint:ignore snapshotonce.
var SnapshotOnce = &Analyzer{
	Name: "snapshotonce",
	Doc:  "HTTP handlers must load the atomic.Pointer registry snapshot at most once per request",
	Run:  runSnapshotOnce,
}

func runSnapshotOnce(pass *Pass) {
	totals := snapshotLoadTotals(pass.Prog)
	for _, d := range pass.Prog.Decls() {
		if d.Pkg.Pkg != pass.Pkg || !isHTTPHandlerShape(d.Fn) {
			continue
		}
		if totals[d.Fn] >= snapshotLoadCap {
			pass.Reportf(d.Decl.Pos(),
				"handler %s loads the registry atomic.Pointer snapshot 2 or more times per request; load once and pass the snapshot down",
				funcDisplayName(d.Fn))
		}
	}
}

// isHTTPHandlerShape reports whether fn has the http.HandlerFunc
// shape: exactly (http.ResponseWriter, *http.Request) parameters and
// no results.
func isHTTPHandlerShape(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 0 || sig.Params().Len() != 2 {
		return false
	}
	first, ok := sig.Params().At(0).Type().(*types.Named)
	if !ok || !isNetHTTPType(first.Obj(), "ResponseWriter") {
		return false
	}
	second, ok := sig.Params().At(1).Type().(*types.Pointer)
	if !ok {
		return false
	}
	elem, ok := second.Elem().(*types.Named)
	return ok && isNetHTTPType(elem.Obj(), "Request")
}

func isNetHTTPType(obj *types.TypeName, name string) bool {
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// snapshotLoadCap is where counting saturates: the analyzer only needs
// to distinguish "at most once" from "twice or more", and the cap
// keeps the interprocedural fixpoint finite under recursion.
const snapshotLoadCap = 2

// snapshotLoadTotals computes, for every declared function, a
// saturating count of atomic.Pointer Load calls it performs
// transitively. Counting is per call SITE, not per distinct callee —
// a handler that calls the same loading helper twice tears just as
// surely as one with two helpers — and a site inside a for/range loop
// saturates immediately, since one iteration per registry generation
// is all it takes. Closure bodies count toward the enclosing
// function, and a function literal passed as a call argument counts
// as a loop body: the callee may run it once per element, as
// parallel.Map does for each element of a batch. The fixpoint is
// monotone and capped, so recursion terminates.
func snapshotLoadTotals(prog *Program) map[*types.Func]int {
	return prog.Cache("snapshotonce.totals", func() any {
		totals := make(map[*types.Func]int, len(prog.decls))
		for changed := true; changed; {
			changed = false
			for fn, d := range prog.decls {
				if n := bodyLoadCount(d, totals); n > totals[fn] {
					totals[fn] = n
					changed = true
				}
			}
		}
		return totals
	}).(map[*types.Func]int)
}

// bodyLoadCount counts the Load calls one execution of the body can
// perform, given the current per-callee totals: direct
// atomic.Pointer.Load sites plus the running total of every
// statically resolved call site, saturating at snapshotLoadCap and
// treating loop bodies as executing many times.
func bodyLoadCount(d *FuncDecl, totals map[*types.Func]int) int {
	count := 0
	add := func(n int, inLoop bool) {
		if n == 0 {
			return
		}
		if inLoop {
			count = snapshotLoadCap
		} else {
			count += n
		}
		if count > snapshotLoadCap {
			count = snapshotLoadCap
		}
	}
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				walk(n.Init, inLoop)
				walk(n.Cond, inLoop)
				walk(n.Post, inLoop)
				walk(n.Body, true)
				return false
			case *ast.RangeStmt:
				walk(n.X, inLoop)
				walk(n.Body, true)
				return false
			case *ast.CallExpr:
				if isAtomicPointerLoad(d.Pkg.Info, n) {
					add(1, inLoop)
				} else if callee := CalleeOf(d.Pkg.Info, n); callee != nil {
					add(totals[callee], inLoop)
				}
				walk(n.Fun, inLoop)
				for _, arg := range n.Args {
					// A literal handed to a call may run once per
					// element (parallel.Map, sort.Slice): a loop body.
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						walk(lit.Body, true)
					} else {
						walk(arg, inLoop)
					}
				}
				return false
			}
			return true
		})
	}
	walk(d.Decl.Body, false)
	return count
}

// isAtomicPointerLoad reports whether the call is a method call of
// Load on a sync/atomic.Pointer[T] receiver.
func isAtomicPointerLoad(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	if selection.Obj().Name() != "Load" {
		return false
	}
	named := namedOf(selection.Recv())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pointer" && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
