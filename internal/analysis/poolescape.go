package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscape keeps pooled scratch request-local: a value acquired from
// sync.Pool.Get — or from a `// lint:scratch` accessor, or a helper
// that returns one's result — must be dead by every exit of the
// acquiring function: handed back to the pool (directly via Put or
// through a releaser helper) and never allowed to outlive the call.
// WHIRL's dense scoring scratch is the motivating case: a pooled
// buffer that escapes into a cache, a struct field, a goroutine, or a
// returned prediction is concurrently reused by the next request, and
// the corruption looks like model nondeterminism, not a crash.
//
// Two rules per acquired value:
//
//   - escape: it must not be returned, stored into a package variable
//     or state reachable from a receiver/parameter, captured by a go
//     statement, or passed to a callee whose mutation/escape summary
//     (mutsum.go) lets that parameter escape — the interprocedural
//     case.
//   - release: some path must hand it back to the pool; acquiring and
//     merely dropping it silently defeats the pooling.
//
// Only `// lint:scratch` annotated accessors are exempt from the
// rules: returning pooled memory is their declared job. A helper that
// returns pooled scratch without the annotation is a finding — the
// hand-off must be deliberate and documented. (Unannotated helpers
// are still recognized as acquisition sources in their callers, so
// tracking does not stop at them.)
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "sync.Pool / lint:scratch values must be released and must not escape the acquiring function",
	Run:  runPoolEscape,
}

func runPoolEscape(pass *Pass) {
	accessors := scratchAccessors(pass.Prog)
	releasers := poolReleasers(pass.Prog)
	sums := MutSummaries(pass.Prog)
	for _, d := range pass.Prog.Decls() {
		if d.Pkg.Pkg != pass.Pkg {
			continue
		}
		if hasDirective(d, "lint:scratch") {
			// Handing out pooled memory is the annotated accessor's
			// job. Derived (unannotated) accessors are still checked:
			// returning pooled scratch without the annotation is a
			// finding, so the hand-off is always deliberate and
			// documented.
			continue
		}
		checkPoolEscapes(pass, d, accessors, releasers, sums)
	}
}

// isPoolMethod reports whether call invokes the named method on a
// sync.Pool receiver, returning the receiver selection for argument
// peeling.
func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal || selection.Obj().Name() != name {
		return false
	}
	named := namedOf(selection.Recv())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// scratchAccessors computes (once per program, cached) the functions
// that hand out pooled memory: `// lint:scratch` declarations,
// functions whose return derives from sync.Pool.Get, and functions
// whose return derives from another accessor, closed to fixpoint.
func scratchAccessors(prog *Program) map[*types.Func]bool {
	return prog.Cache("poolescape.accessors", func() any {
		acc := make(map[*types.Func]bool)
		for _, d := range annotatedRoots(prog, "lint:scratch") {
			acc[d.Fn] = true
		}
		for changed := true; changed; {
			changed = false
			for _, d := range prog.Decls() {
				if acc[d.Fn] {
					continue
				}
				info := d.Pkg.Info
				if returnsDerivedFrom(d, func(call *ast.CallExpr) bool {
					if isPoolMethod(info, call, "Get") {
						return true
					}
					fn := staticOrIfaceCallee(info, call)
					return fn != nil && acc[fn]
				}) {
					acc[d.Fn] = true
					changed = true
				}
			}
		}
		return acc
	}).(map[*types.Func]bool)
}

// poolReleasers computes (once per program, cached) which slots of
// which functions hand their value back to a pool: a direct
// sync.Pool.Put of the slot (possibly by address), or forwarding the
// slot to another releaser, closed to fixpoint over the call graph.
func poolReleasers(prog *Program) map[*types.Func]map[int]bool {
	return prog.Cache("poolescape.releasers", func() any {
		rel := make(map[*types.Func]map[int]bool, len(prog.decls))
		decls := prog.Decls()
		for _, d := range decls {
			rel[d.Fn] = make(map[int]bool)
		}
		for changed := true; changed; {
			changed = false
			for _, d := range decls {
				r := newMutResolver(d)
				mine := rel[d.Fn]
				add := func(slot int) {
					if !mine[slot] {
						mine[slot] = true
						changed = true
					}
				}
				ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if isPoolMethod(r.info, call, "Put") && len(call.Args) > 0 {
						if slot, _, ok := r.resolveExpr(call.Args[0]); ok {
							add(slot)
						}
						return true
					}
					callee, slotArgs := calleeSlotArgs(r.info, call)
					if callee == nil {
						return true
					}
					for j, args := range slotArgs {
						if !rel[callee][j] {
							continue
						}
						for _, arg := range args {
							if slot, _, ok := r.resolveExpr(arg); ok {
								add(slot)
							}
						}
					}
					return true
				})
			}
		}
		return rel
	}).(map[*types.Func]map[int]bool)
}

// checkPoolEscapes verifies one function's use of acquired scratch.
func checkPoolEscapes(pass *Pass, d *FuncDecl, accessors map[*types.Func]bool, releasers map[*types.Func]map[int]bool, sums map[*types.Func]*MutSummary) {
	info := d.Pkg.Info
	tracked := track(d, func(call *ast.CallExpr) (string, bool) {
		if isPoolMethod(info, call, "Get") {
			return "sync.Pool.Get", true
		}
		if fn := staticOrIfaceCallee(info, call); fn != nil && accessors[fn] {
			return funcDisplayName(fn), true
		}
		return "", false
	}).vars
	if len(tracked) == 0 {
		return
	}
	trackedOf := func(e ast.Expr) (*types.Var, trackInfo, bool) {
		p := peelRef(info, e)
		v, ok := p.obj.(*types.Var)
		if !ok {
			return nil, trackInfo{}, false
		}
		ti, ok := tracked[v]
		return v, ti, ok
	}
	released := make(map[*types.Var]bool)
	escaped := make(map[*types.Var]bool)
	returned := returnedVars(d)

	report := func(v *types.Var, pos token.Pos, format string, args ...any) {
		escaped[v] = true
		pass.Reportf(pos, format, args...)
	}

	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body, true)
				return false
			case *ast.ReturnStmt:
				if inLit {
					return true
				}
				for _, res := range n.Results {
					trackedCarried(info, res, tracked, func(v *types.Var, ti trackInfo) {
						report(v, res.Pos(),
							"returns %s, pooled scratch acquired from %s; copy the data out, or annotate this function `// lint:scratch` if handing out pooled memory is its job",
							v.Name(), ti.desc)
					})
				}
			case *ast.GoStmt:
				goCarriedRefs(info, n.Call, func(p peeled) {
					v, ok := p.obj.(*types.Var)
					if !ok {
						return
					}
					if ti, ok := tracked[v]; ok {
						report(v, n.Pos(),
							"go statement captures %s, pooled scratch acquired from %s; the goroutine may outlive the request that must return it",
							v.Name(), ti.desc)
					}
				})
			case *ast.AssignStmt:
				checkPoolStore(pass, d, n, tracked, returned, report)
			case *ast.CallExpr:
				// Release bookkeeping and interprocedural escapes.
				if isPoolMethod(info, n, "Put") && len(n.Args) > 0 {
					if v, _, ok := trackedOf(n.Args[0]); ok {
						released[v] = true
					}
					return true
				}
				callee, slotArgs := calleeSlotArgs(info, n)
				if callee == nil {
					return true
				}
				for j, args := range slotArgs {
					for _, arg := range args {
						v, ti, ok := trackedOf(arg)
						if !ok {
							continue
						}
						if releasers[callee][j] {
							released[v] = true
							continue
						}
						if escs := sums[callee].Escapes(j); len(escs) > 0 {
							report(v, arg.Pos(),
								"passes %s, pooled scratch acquired from %s, to %s, which lets it escape (%s); pooled buffers must stay request-local",
								v.Name(), ti.desc, funcDisplayName(callee), escs[0])
						}
					}
				}
			}
			return true
		})
	}
	walk(d.Decl.Body, false)

	// Release rule: anything acquired, not escaped (already reported),
	// and never handed back leaks the pooling.
	type leak struct {
		v  *types.Var
		ti trackInfo
	}
	var leaks []leak
	for v, ti := range tracked {
		if !released[v] && !escaped[v] && ti.pos.IsValid() {
			leaks = append(leaks, leak{v, ti})
		}
	}
	// Deterministic order: by acquisition position.
	for i := 1; i < len(leaks); i++ {
		for j := i; j > 0 && leaks[j].ti.pos < leaks[j-1].ti.pos; j-- {
			leaks[j], leaks[j-1] = leaks[j-1], leaks[j]
		}
	}
	seenPos := make(map[token.Pos]bool)
	for _, l := range leaks {
		if seenPos[l.ti.pos] {
			continue // aliases of one acquisition: one finding
		}
		seenPos[l.ti.pos] = true
		pass.Reportf(l.ti.pos,
			"%s acquired from %s is never returned to the pool; call Put (or a releasing helper) on every path, or drop the pooled pattern",
			l.v.Name(), l.ti.desc)
	}
}

// checkPoolStore flags assignments that store tracked scratch into a
// location that outlives the function: a package variable, state
// reachable from a receiver or parameter, or a local that the function
// returns.
func checkPoolStore(pass *Pass, d *FuncDecl, assign *ast.AssignStmt, tracked map[*types.Var]trackInfo, returned map[*types.Var]bool, report func(*types.Var, token.Pos, string, ...any)) {
	info := d.Pkg.Info
	r := newMutResolver(d)
	for i, lhs := range assign.Lhs {
		var rhs ast.Expr
		if len(assign.Lhs) == len(assign.Rhs) {
			rhs = assign.Rhs[i]
		} else if len(assign.Rhs) == 1 {
			rhs = assign.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		target := ""
		p := peelRef(info, lhs)
		switch {
		case p.obj != nil && func() bool { v, ok := p.obj.(*types.Var); return ok && isPackageLevel(v) }():
			target = "package-level " + packageVarSym(p.obj.(*types.Var)).display
		case p.indirect:
			if _, pp, ok := r.resolveExpr(lhs); ok {
				name := "receiver/parameter state"
				if v, ok := pp.obj.(*types.Var); ok && v.Name() != "" {
					name = v.Name() + pp.path
				}
				target = name
			} else if v, ok := p.obj.(*types.Var); ok && returned[v] {
				target = "returned value " + v.Name() + p.path
			}
		}
		if target == "" {
			continue
		}
		// The destination outlives the call; does the stored value
		// carry tracked scratch?
		trackedCarried(info, rhs, tracked, func(v *types.Var, ti trackInfo) {
			report(v, lhs.Pos(),
				"stores %s, pooled scratch acquired from %s, into %s; pooled buffers must stay request-local",
				v.Name(), ti.desc, target)
		})
	}
}

// trackedCarried visits every tracked variable whose reference value
// the expression carries onward (see carriedRefs): returning buf or
// embedding it in a composite literal counts, reading buf[0] does not.
func trackedCarried(info *types.Info, e ast.Expr, tracked map[*types.Var]trackInfo, visit func(*types.Var, trackInfo)) {
	seen := make(map[*types.Var]bool)
	carriedRefs(info, e, func(p peeled) {
		v, ok := p.obj.(*types.Var)
		if !ok || seen[v] {
			return
		}
		if ti, ok := tracked[v]; ok {
			seen[v] = true
			visit(v, ti)
		}
	})
}

// returnedVars collects the variables mentioned in the function's
// top-level return statements: storing pooled scratch into one smuggles
// it out through the return value.
func returnedVars(d *FuncDecl) map[*types.Var]bool {
	info := d.Pkg.Info
	out := make(map[*types.Var]bool)
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body, true)
				return false
			case *ast.ReturnStmt:
				if inLit {
					return true
				}
				for _, res := range n.Results {
					ast.Inspect(res, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok {
								out[v] = true
							}
						}
						return true
					})
				}
			}
			return true
		})
	}
	// Named results are returned even by a bare return.
	if sig, ok := d.Fn.Type().(*types.Signature); ok {
		for i := 0; i < sig.Results().Len(); i++ {
			if v := sig.Results().At(i); v.Name() != "" {
				out[v] = true
			}
		}
	}
	walk(d.Decl.Body, false)
	return out
}

// returnsDerivedFrom reports whether any top-level return statement of
// d returns a value derived from a call matched by isSource — the call
// itself, or a local tracked back to one. poolescape closes its
// accessor set with it, and cowstore its snapshot sources.
func returnsDerivedFrom(d *FuncDecl, isSource func(*ast.CallExpr) bool) bool {
	tr := track(d, func(call *ast.CallExpr) (string, bool) { return "source", isSource(call) })
	found := false
	forEachReturn(d, func(res ast.Expr) {
		if !found && isRefType(tr.info.TypeOf(res)) {
			_, _, found = tr.root(res)
		}
	})
	return found
}

// forEachReturn visits the results of d's own return statements, not
// those of the function literals inside it.
func forEachReturn(d *FuncDecl, visit func(ast.Expr)) {
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				visit(res)
			}
		}
		return true
	})
}

// staticOrIfaceCallee resolves a call to its compile-time callee,
// including interface methods (which CalleeOf deliberately treats as
// dynamic): an accessor or snapshot source declared as an interface
// method is matched at every call through the interface, even though
// the runtime target is unknown.
func staticOrIfaceCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := CalleeOf(info, call); fn != nil {
		return fn
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	fn, _ := selection.Obj().(*types.Func)
	return fn
}
