package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WorkerPure enforces purity of the closures handed to the worker
// pool: a function literal passed to parallel.Map or parallel.ForEach
// runs concurrently on many goroutines, so the only state it may
// write is (a) variables it declares itself and (b) its own result
// slot — an element of a captured slice or map indexed by the
// closure's task index parameter (each task owns a distinct slot, the
// pattern every fan-out in this repo uses). Anything else — a captured
// scalar, a shared map, package-level state — is a data race under
// the fan-out, or, behind a lock, a write whose order depends on
// scheduling; either breaks the bit-identical-at-every-worker-count
// guarantee.
//
// The check is interprocedural twice over: package-level state is
// summarized over the call graph (a worker that mutates a package
// variable through a helper chain is caught, not just a direct
// assignment), and arguments handed to callees are checked against the
// callees' mutation/escape summaries (mutsum.go), so a worker that
// passes a captured map or slice to a helper that writes it is caught
// too — writes laundered through a call no longer hide.
var WorkerPure = &Analyzer{
	Name: "workerpure",
	Doc:  "closures passed to parallel.Map/ForEach must only write their own result slot",
	Run:  runWorkerPure,
}

func runWorkerPure(pass *Pass) {
	writes := workerPureWrites(pass.Prog)
	sums := MutSummaries(pass.Prog)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := parallelPoolCall(pass, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkWorkerClosure(pass, name, lit, writes, sums)
			return true
		})
	}
}

// parallelPoolCall reports whether call invokes the worker pool's Map
// or ForEach (matched by package-path suffix so analyzer fixtures can
// import the pool through their own path), returning the callee name.
func parallelPoolCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := CalleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	if fn.Name() != "Map" && fn.Name() != "ForEach" {
		return "", false
	}
	path := fn.Pkg().Path()
	if path != "repro/internal/parallel" && !strings.HasSuffix(path, "/internal/parallel") {
		return "", false
	}
	return fn.Name(), true
}

// checkWorkerClosure verifies one worker literal: direct writes in the
// body (captured variables and package-level state) and transitive
// package-level writes through its statically resolved callees.
func checkWorkerClosure(pass *Pass, pool string, lit *ast.FuncLit, writes map[*types.Func]map[pkgVarKey]bool, sums map[*types.Func]*MutSummary) {
	idxParams := intParamObjs(pass, lit)
	ast.Inspect(lit, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWorkerWrite(pass, pool, lit, lhs, idxParams)
			}
		case *ast.IncDecStmt:
			checkWorkerWrite(pass, pool, lit, n.X, idxParams)
		case *ast.CallExpr:
			checkWorkerCallArgs(pass, pool, lit, n, idxParams, sums)
		}
		return true
	})
	callees, _ := callsIn(pass.Info, lit, true)
	reported := make(map[pkgVarKey]bool)
	for _, callee := range callees {
		facts := writes[callee]
		if len(facts) == 0 {
			continue
		}
		sorted := make([]pkgVarKey, 0, len(facts))
		for f := range facts {
			if !reported[f] {
				reported[f] = true
				sorted = append(sorted, f)
			}
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
		// Report at the closure's call sites of the offending callee so
		// the finding (and any suppression) sits on the worker code.
		pos := lit.Pos()
		ast.Inspect(lit, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && CalleeOf(pass.Info, call) == callee && pos == lit.Pos() {
				pos = call.Pos()
			}
			return true
		})
		for _, f := range sorted {
			pass.Reportf(pos,
				"worker closure passed to parallel.%s calls %s, which writes package-level %s; workers must be pure apart from their own result slot",
				pool, callee.Name(), f.display)
		}
	}
}

// checkWorkerCallArgs catches the laundered write: the closure passes a
// captured (or package-level) map, slice, or pointer to a callee whose
// mutation/escape summary (mutsum.go) records a write to that
// parameter. The same exemptions as direct writes apply — values the
// closure declares itself and slot-indexed elements (&out[i]) are fine.
func checkWorkerCallArgs(pass *Pass, pool string, lit *ast.FuncLit, call *ast.CallExpr, idxParams map[types.Object]bool, sums map[*types.Func]*MutSummary) {
	callee, slotArgs := calleeSlotArgs(pass.Info, call)
	if callee == nil {
		return
	}
	sum := sums[callee]
	if sum == nil {
		return
	}
	for j, args := range slotArgs {
		paths := sum.Mutates(j)
		if len(paths) == 0 {
			continue
		}
		for _, arg := range args {
			p := peelRef(pass.Info, arg)
			if !p.addrOf && !isRefType(pass.Info.TypeOf(arg)) {
				continue // passed by value; the callee mutates its own copy
			}
			// Unwrap a leading &x so resolveWriteTarget sees the target.
			target := ast.Unparen(arg)
			if ue, ok := target.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				target = ue.X
			}
			t := resolveWriteTarget(pass.Info, target, idxParams)
			if t.root == nil || t.slotIndexed {
				continue
			}
			if t.root.Pos() >= lit.Pos() && t.root.Pos() < lit.End() {
				continue // the closure's own value; mutating it is its business
			}
			if v, ok := t.root.(*types.Var); ok && isPackageLevel(v) {
				pass.Reportf(arg.Pos(),
					"worker closure passed to parallel.%s hands package-level %s to %s, which mutates it (%s); workers must be pure apart from their own result slot",
					pool, packageVarSym(v).display, callee.Name(), paths[0])
				continue
			}
			pass.Reportf(arg.Pos(),
				"worker closure passed to parallel.%s hands captured %q to %s, which mutates it (%s); index writes by the task index",
				pool, t.root.Name(), callee.Name(), paths[0])
		}
	}
}

// checkWorkerWrite validates one assignment target inside a worker
// closure.
func checkWorkerWrite(pass *Pass, pool string, lit *ast.FuncLit, lhs ast.Expr, idxParams map[types.Object]bool) {
	t := resolveWriteTarget(pass.Info, lhs, idxParams)
	if t.root == nil {
		return
	}
	if t.root.Pos() >= lit.Pos() && t.root.Pos() < lit.End() {
		return // declared by the closure itself (including its params)
	}
	if t.slotIndexed {
		return // the task's own result slot
	}
	if v, ok := t.root.(*types.Var); ok && isPackageLevel(v) {
		pass.Reportf(lhs.Pos(),
			"worker closure passed to parallel.%s writes package-level %s; workers must be pure apart from their own result slot",
			pool, packageVarSym(v).display)
		return
	}
	pass.Reportf(lhs.Pos(),
		"worker closure passed to parallel.%s writes captured %q outside its own result slot; index it by the task index",
		pool, t.root.Name())
}

// writeTarget describes an assignment LHS after peeling selectors,
// indexes, and dereferences.
type writeTarget struct {
	root        types.Object
	slotIndexed bool // an index step used a task-index parameter
}

// resolveWriteTarget peels lhs down to its root object, noting whether
// the path goes through an element indexed by one of idxParams.
func resolveWriteTarget(info *types.Info, lhs ast.Expr, idxParams map[types.Object]bool) writeTarget {
	var t writeTarget
	e := lhs
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			t.root = obj
			return t
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			if idx := ast.Unparen(x.Index); idx != nil {
				if id, ok := idx.(*ast.Ident); ok && idxParams[info.Uses[id]] {
					t.slotIndexed = true
				}
			}
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPackageLevel(v) {
				// Qualified reference to another package's variable.
				t.root = v
				return t
			}
			e = x.X
		default:
			return t
		}
	}
}

// intParamObjs collects the closure's int-typed parameters — the task
// index in the parallel.Map/ForEach signature.
func intParamObjs(pass *Pass, lit *ast.FuncLit) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if lit.Type.Params == nil {
		return out
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.Defs[name]
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				out[obj] = true
			}
		}
	}
	return out
}

// workerPureWrites computes, once per program, the transitive
// package-level-write summary: for each declared function, every
// package-level variable it (or any statically resolved callee)
// assigns to.
func workerPureWrites(prog *Program) map[*types.Func]map[pkgVarKey]bool {
	return prog.Cache("workerpure.writes", func() any {
		return FixpointUnion(prog, func(d *FuncDecl) map[pkgVarKey]bool {
			local := make(map[pkgVarKey]bool)
			record := func(lhs ast.Expr) {
				t := resolveWriteTarget(d.Pkg.Info, lhs, nil)
				if v, ok := t.root.(*types.Var); ok && isPackageLevel(v) {
					local[packageVarSym(v)] = true
				}
			}
			ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						record(lhs)
					}
				case *ast.IncDecStmt:
					record(n.X)
				}
				return true
			})
			return local
		})
	}).(map[*types.Func]map[pkgVarKey]bool)
}
