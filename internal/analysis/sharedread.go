package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SharedRead enforces the read-only contract on shared return values:
// a function (or interface method) whose doc comment carries
// `// lint:shared` hands out a value that other callers hold
// concurrently — WHIRL's two-generation prediction cache returns the
// cached learn.Prediction itself, not a clone — so no caller may ever
// mutate it. One write corrupts every later request for the same key,
// bit-identically wrong.
//
// The shared set is closed three ways before checking begins:
// methods implementing a `// lint:shared` interface method are shared
// (annotating learn.Learner.Predict covers every learner), and a
// function whose return value derives from a shared call is itself
// shared (a helper that forwards a cache hit hands out the same
// storage). Callers are then checked against the mutation/escape
// summary substrate (mutsum.go): a finding is a direct write through a
// value tracked to a shared call — element assignment, delete, append
// growth — or passing it to a callee whose summary mutates that
// parameter, interprocedurally through the call graph. Callers that
// need to modify a result must Clone it first. Only the producers that
// own the value (the annotated functions and the implementations) are
// exempt; a helper that merely forwards a shared value is checked.
//
// A shared value need not be a map or a slice: a struct that holds one
// (learn.Prediction, a score slice and its label table) shares its
// state with every copy, so copies are tracked too, and a method with a
// value receiver that writes through the slice mutates the shared
// value. An accessor that returns a tracked value's state (Scores, In)
// hands on the same storage, so its result is tracked as well.
var SharedRead = &Analyzer{
	Name: "sharedread",
	Doc:  "values returned by // lint:shared functions are read-only and must never be mutated",
	Run:  runSharedRead,
}

func runSharedRead(pass *Pass) {
	shared := sharedFuncs(pass.Prog)
	if len(shared) == 0 {
		return
	}
	producers := sharedProducers(pass.Prog)
	sums := MutSummaries(pass.Prog)
	for _, d := range pass.Prog.Decls() {
		if d.Pkg.Pkg != pass.Pkg {
			continue
		}
		if producers[d.Fn] {
			continue // the producer itself may build the value it shares
		}
		info := d.Pkg.Info
		tr := sharedTracker(pass.Prog, d, func(call *ast.CallExpr) (string, bool) {
			fn := staticOrIfaceCallee(info, call)
			if fn == nil || !shared[fn] {
				return "", false
			}
			return funcDisplayName(fn), true
		})
		checkWrite := func(lhs ast.Expr) {
			if p, ti, ok := tr.root(lhs); ok && p.indirect && pathMutates(p.path, ti.path) {
				pass.Reportf(lhs.Pos(),
					"writes to %s%s, the shared value returned by %s; lint:shared results are read-only — Clone before modifying",
					rootName(p), p.path, ti.desc)
			}
		}
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkWrite(lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(n.X)
			case *ast.CallExpr:
				checkSharedCall(pass, tr, n, sums)
			}
			return true
		})
	}
}

// rootName renders the root of a peeled expression for a diagnostic:
// the variable, or the call.
func rootName(p peeled) string {
	if p.obj != nil {
		return p.obj.Name()
	}
	return types.ExprString(p.call)
}

// checkSharedCall flags builtin mutators (delete, copy) applied to a
// shared value and calls whose callee summary mutates a parameter the
// shared value occupies — the interprocedural half of the contract.
func checkSharedCall(pass *Pass, tr *tracker, call *ast.CallExpr, sums map[*types.Func]*MutSummary) {
	info := tr.info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if (b.Name() == "delete" || b.Name() == "copy") && len(call.Args) > 0 {
				if p, ti, ok := tr.root(call.Args[0]); ok && strings.HasPrefix(p.path, ti.path) {
					pass.Reportf(call.Pos(),
						"%s mutates the shared value returned by %s; lint:shared results are read-only — Clone before modifying",
						b.Name(), ti.desc)
				}
			}
			return
		}
	}
	callee, slotArgs := calleeSlotArgs(info, call)
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
			p, ti, ok := tr.root(arg)
			if !ok {
				continue
			}
			if !p.addrOf && !sharesState(info.TypeOf(arg)) {
				continue // passed by value: the callee mutates its own copy
			}
			hit := calleeMutationHit(paths, p.path, ti.path)
			if hit == "" {
				continue // the callee's writes stop short of the shared value
			}
			pass.Reportf(arg.Pos(),
				"passes the shared value returned by %s to %s, which mutates it (%s); lint:shared results are read-only — Clone before modifying",
				ti.desc, funcDisplayName(callee), hit)
		}
	}
}

// sharesState reports whether copies of a value of type t share state,
// so that a write through one copy shows through the others: the
// reference types of isRefType, and structs and arrays that hold one.
// Copying a learn.Prediction copies its slice header, not its scores.
// poolescape and cowstore keep isRefType: their values are pointers,
// maps and slices, and a struct merely holding pooled scratch is not
// the scratch.
func sharesState(t types.Type) bool {
	if isRefType(t) {
		return true
	}
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if sharesState(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return sharesState(u.Elem())
	}
	return false
}

// sharedTracker tracks d's locals holding values from calls matched by
// isSource, as sharedread sees them: sharesState values, carried
// through accessors (carriedSlots).
func sharedTracker(prog *Program, d *FuncDecl, isSource func(*ast.CallExpr) (string, bool)) *tracker {
	info := d.Pkg.Info
	carried := carriedSlots(prog)
	return track(d, trackSpec{
		source: isSource,
		ref:    sharesState,
		carries: func(call *ast.CallExpr) []ast.Expr {
			callee, slotArgs := calleeSlotArgs(info, call)
			var ops []ast.Expr
			for j, args := range slotArgs {
				if carried[callee][j] {
					ops = append(ops, args...)
				}
			}
			return ops
		},
	})
}

// carriedSlots computes (once per program, cached) each function's
// accessor slots: the receiver or parameters whose state a value it
// returns shares — `return p.scores`, `return p`, or another
// accessor's result over them — iterated to fixpoint over the call
// graph. A fresh value (a composite literal, a copy made by append)
// carries nothing, so Clone is not an accessor.
func carriedSlots(prog *Program) map[*types.Func]map[int]bool {
	return prog.Cache("sharedread.carries", func() any {
		carried := make(map[*types.Func]map[int]bool)
		decls := prog.Decls()
		resolvers := make([]*mutResolver, len(decls))
		for i, d := range decls {
			resolvers[i] = newMutResolver(d)
		}
		for changed := true; changed; {
			changed = false
			for i, d := range decls {
				r := resolvers[i]
				var roots func(e ast.Expr, depth int)
				roots = func(e ast.Expr, depth int) {
					p := peelRef(r.info, e)
					if slot, _, ok := r.resolve(p.obj); ok {
						if carried[d.Fn] == nil {
							carried[d.Fn] = make(map[int]bool)
						}
						if !carried[d.Fn][slot] {
							carried[d.Fn][slot] = true
							changed = true
						}
						return
					}
					if p.call == nil || depth >= 8 {
						return
					}
					callee, slotArgs := calleeSlotArgs(r.info, p.call)
					for j, args := range slotArgs {
						if carried[callee][j] {
							for _, a := range args {
								roots(a, depth+1)
							}
						}
					}
				}
				forEachReturn(d, func(res ast.Expr) {
					if sharesState(r.info.TypeOf(res)) {
						roots(res, 0)
					}
				})
			}
		}
		return carried
	}).(map[*types.Func]map[int]bool)
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

// sharedProducers computes (once per program, cached) the functions
// that own the values they share: `// lint:shared` declarations,
// `// lint:shared` interface methods, and methods implementing such an
// interface method. A producer may build the value it shares, so its
// own body is not checked.
func sharedProducers(prog *Program) map[*types.Func]bool {
	return prog.Cache("sharedread.producers", func() any {
		shared := make(map[*types.Func]bool)
		for _, d := range annotatedRoots(prog, "lint:shared") {
			shared[d.Fn] = true
		}
		ifaceMethods := interfaceMethodsWithDirective(prog, "lint:shared")
		for _, fn := range ifaceMethods {
			shared[fn] = true
		}
		// Implementations of shared interface methods are shared: the
		// interface's contract binds every concrete Predict.
		for fn := range prog.decls {
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			recv := sig.Recv().Type()
			for _, im := range ifaceMethods {
				if fn.Name() != im.Name() {
					continue
				}
				imSig, ok := im.Type().(*types.Signature)
				if !ok || imSig.Recv() == nil {
					continue
				}
				iface, ok := imSig.Recv().Type().Underlying().(*types.Interface)
				if !ok {
					continue
				}
				if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
					shared[fn] = true
				}
			}
		}
		return shared
	}).(map[*types.Func]bool)
}

// sharedFuncs computes (once per program, cached) the closed set of
// shared-producing functions: the producers, and functions whose
// return value derives from a shared call. A function of the second
// kind only forwards storage it does not own, so its body is checked
// like any caller's.
func sharedFuncs(prog *Program) map[*types.Func]bool {
	return prog.Cache("sharedread.funcs", func() any {
		shared := make(map[*types.Func]bool)
		for fn := range sharedProducers(prog) {
			shared[fn] = true
		}
		// Return-derivation closure: a function returning a shared
		// call's result hands out the same storage.
		for changed := true; changed; {
			changed = false
			for _, d := range prog.Decls() {
				if shared[d.Fn] {
					continue
				}
				if returnsTracked(d, sharedTracker(prog, d, func(call *ast.CallExpr) (string, bool) {
					fn := staticOrIfaceCallee(d.Pkg.Info, call)
					return "", fn != nil && shared[fn]
				})) {
					shared[d.Fn] = true
					changed = true
				}
			}
		}
		return shared
	}).(map[*types.Func]bool)
}

// interfaceMethodsWithDirective collects interface methods whose doc
// comment carries the `// lint:<directive>` line, in source order.
func interfaceMethodsWithDirective(prog *Program, directive string) []*types.Func {
	var out []*types.Func
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				it, ok := n.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, field := range it.Methods.List {
					if len(field.Names) == 0 || !commentGroupHasDirective(field.Doc, directive) {
						continue
					}
					if fn, ok := pkg.Info.Defs[field.Names[0]].(*types.Func); ok {
						out = append(out, fn)
					}
				}
				return true
			})
		}
	}
	return out
}

// returnsDerivedFrom reports whether any top-level return statement of
// d returns a value derived from a call matched by isSource — the call
// itself, or a local tracked back to one.
func returnsDerivedFrom(d *FuncDecl, isSource func(*ast.CallExpr) bool) bool {
	return returnsTracked(d, track(d, trackSpec{
		source: func(call *ast.CallExpr) (string, bool) { return "source", isSource(call) },
		ref:    isRefType,
	}))
}

// returnsTracked reports whether any top-level return statement of d
// returns a value tr tracks.
func returnsTracked(d *FuncDecl, tr *tracker) bool {
	found := false
	forEachReturn(d, func(res ast.Expr) {
		if !found && tr.spec.ref(tr.info.TypeOf(res)) {
			_, _, found = tr.root(res)
		}
	})
	return found
}

// staticOrIfaceCallee resolves a call to its compile-time callee,
// including interface methods (which CalleeOf deliberately treats as
// dynamic): contract analyzers like sharedread attach obligations to
// the interface method itself, so resolving the interface member is
// exactly right even though the runtime target is unknown.
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
