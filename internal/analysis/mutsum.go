package analysis

// Mutation/escape summary substrate: the alias-analysis sibling of
// flow.go's taint substrate. For every declared function it computes a
// summary of the caller-visible effects on the function's "slots" —
// the receiver (slot 0 for methods) and the parameters — iterated to
// fixpoint over the Program call graph:
//
//   - mutates: field/element access paths the function may write
//     through the slot (p[k]=v, *p=x, recv.field=x on a pointer
//     receiver, delete/copy, or any callee whose summary mutates the
//     argument), rendered as bounded path strings for diagnostics.
//   - appends: the slot is grown in place via x = append(x, ...)
//     through an indirection, so a caller-side capacity hint matters.
//   - escapes: the slot's value may outlive the call — returned,
//     stored into a package-level variable or another slot's reachable
//     state (a cache insert), captured by a go statement, or passed to
//     a callee whose summary lets it escape.
//
// Writes that only touch the callee's own copy (rebinding a parameter,
// a field store on a value receiver) are not caller-visible and are
// not recorded. Dynamic calls contribute nothing, the same optimistic
// posture the rest of the suite takes; analyzers that need soundness
// against them consult Program.HasUnresolvedCalls.
//
// poolescape and cowstore are built on these summaries, and
// workerpure/hotalloc consult them to see writes a callee performs on
// their behalf.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// mutPathMax bounds rendered access paths so summaries over recursive
// data structures reach a fixpoint in a finite domain.
const mutPathMax = 48

// mutEffects is one slot's effect set within a function summary.
type mutEffects struct {
	mutates map[string]bool // access paths written through the slot
	escapes map[string]bool // escape descriptions
	appends bool            // grown in place via append through an indirection
}

// MutSummary is the caller-visible effect summary of one function,
// keyed by slot index: the receiver is slot 0 for methods, parameters
// follow (for plain functions parameters start at slot 0).
type MutSummary struct {
	slots map[int]*mutEffects
}

func newMutSummary() *MutSummary { return &MutSummary{slots: make(map[int]*mutEffects)} }

func (s *MutSummary) effects(slot int) *mutEffects {
	e := s.slots[slot]
	if e == nil {
		e = &mutEffects{mutates: make(map[string]bool), escapes: make(map[string]bool)}
		s.slots[slot] = e
	}
	return e
}

// Mutates returns the sorted access paths the function may write
// through the given slot; empty means the slot is not mutated.
func (s *MutSummary) Mutates(slot int) []string {
	if s == nil || s.slots[slot] == nil {
		return nil
	}
	return sortedKeys(s.slots[slot].mutates)
}

// Escapes returns the sorted escape descriptions for the slot; empty
// means the slot's value does not outlive the call through this
// function.
func (s *MutSummary) Escapes(slot int) []string {
	if s == nil || s.slots[slot] == nil {
		return nil
	}
	return sortedKeys(s.slots[slot].escapes)
}

// Appends reports whether the function grows the slot in place via
// append through an indirection.
func (s *MutSummary) Appends(slot int) bool {
	return s != nil && s.slots[slot] != nil && s.slots[slot].appends
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// funcSlots returns the variables occupying a function's slots:
// receiver first (methods), then parameters.
func funcSlots(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// isRefType reports whether values of t share underlying state when
// copied, so a write or store through one copy is visible through the
// others.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// sharesState reports whether copies of a value of type t share state,
// so that a write through one copy shows through the others: the
// reference types of isRefType, and structs and arrays that hold one.
// Copying a struct that holds a slice copies the slice header, not
// the elements, so a local copy of such a parameter aliases it.
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

// peeled is the result of peeling an expression down to its root.
type peeled struct {
	obj      types.Object  // root object (a variable), or nil
	path     string        // rendered access path from the root
	indirect bool          // a write at the expression is visible through the root
	addrOf   bool          // peeled through a unary &
	call     *ast.CallExpr // the root is a call result (obj is nil)
}

// peelRef peels selectors, indexes, slices, derefs, address-ofs,
// parens, and type assertions off an expression, returning the root
// object, the access path from root to expression, and whether the
// path crosses an indirection (pointer deref, map/slice index, field
// through a pointer) — i.e. whether a write at the peeled site is
// visible to anyone else holding the root.
func peelRef(info *types.Info, e ast.Expr) peeled {
	var p peeled
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			p.obj = obj
			return p
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if t := info.TypeOf(x.X); t != nil {
					if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
						p.indirect = true
					}
				}
				p.path = joinPath("."+x.Sel.Name, p.path)
				e = x.X
				continue
			}
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPackageLevel(v) {
				p.obj = v // package-qualified variable pkg.V
				return p
			}
			return p // method value or other non-field selection
		case *ast.IndexExpr:
			if t := info.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice, *types.Pointer:
					p.indirect = true
				}
			}
			p.path = joinPath("[*]", p.path)
			e = x.X
		case *ast.SliceExpr:
			p.path = joinPath("[:]", p.path)
			e = x.X
		case *ast.StarExpr:
			p.indirect = true
			p.path = joinPath("*", p.path)
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return p
			}
			p.addrOf = true
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			p.call = x
			return p
		default:
			return p
		}
	}
}

// joinPath concatenates two access-path fragments under the bounded
// rendering: paths longer than mutPathMax truncate to a "..." suffix,
// keeping the summary domain finite so the fixpoint terminates.
func joinPath(a, b string) string {
	s := a + b
	if len(s) > mutPathMax {
		s = s[:mutPathMax] + "..."
	}
	return s
}

// calleeSlotArgs resolves a statically dispatched call to (callee,
// per-slot argument expressions): for a method call the receiver
// expression occupies slot 0; variadic arguments share the final slot.
// Returns nil for dynamic calls, conversions, and builtins.
func calleeSlotArgs(info *types.Info, call *ast.CallExpr) (*types.Func, [][]ast.Expr) {
	fn := CalleeOf(info, call)
	if fn == nil {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, nil
	}
	var slots [][]ast.Expr
	if sig.Recv() != nil {
		var recv []ast.Expr
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				recv = []ast.Expr{sel.X}
			}
		}
		slots = append(slots, recv)
	}
	n := sig.Params().Len()
	for i := 0; i < n; i++ {
		switch {
		case i >= len(call.Args):
			// g(f()) tuple argument or arity mismatch: no expressions.
			slots = append(slots, nil)
		case sig.Variadic() && i == n-1 && !call.Ellipsis.IsValid():
			slots = append(slots, call.Args[i:])
		default:
			slots = append(slots, []ast.Expr{call.Args[i]})
		}
	}
	return fn, slots
}

// MutSummaries computes (once per program, cached) the mutation/escape
// summary of every declared function, iterated to fixpoint over the
// static call graph.
func MutSummaries(prog *Program) map[*types.Func]*MutSummary {
	return prog.Cache("mutsum.summaries", func() any {
		sums := make(map[*types.Func]*MutSummary, len(prog.decls))
		decls := prog.Decls()
		for _, d := range decls {
			sums[d.Fn] = newMutSummary()
		}
		for changed := true; changed; {
			changed = false
			for _, d := range decls {
				if mutCollect(d, sums) {
					changed = true
				}
			}
		}
		return sums
	}).(map[*types.Func]*MutSummary)
}

// mutResolver resolves expressions inside one function body to (slot,
// base path) roots, following simple local aliases (v := p.buf).
type mutResolver struct {
	info    *types.Info
	slotOf  map[types.Object]int
	aliases map[types.Object]peeled // local var -> slot-or-alias-rooted value
}

func newMutResolver(d *FuncDecl) *mutResolver {
	r := &mutResolver{
		info:    d.Pkg.Info,
		slotOf:  make(map[types.Object]int),
		aliases: make(map[types.Object]peeled),
	}
	for i, v := range funcSlots(d.Fn) {
		r.slotOf[v] = i
	}
	// Alias pre-pass: a local variable bound to a value rooted at a slot
	// that shares state with it stands for that slot (buf := p.buf, or
	// q := p for a struct holding a slice). The pass is
	// flow-insensitive — an alias established anywhere in the body
	// counts everywhere — which over-approximates but stays
	// deterministic.
	addAlias := func(lhs ast.Expr, p peeled) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := r.info.Defs[id]
		if obj == nil {
			obj = r.info.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, isSlot := r.slotOf[obj]; isSlot {
			return // rebinding a parameter is not an alias
		}
		if !sharesState(obj.Type()) {
			return
		}
		if p.obj == nil || p.obj == obj {
			return
		}
		if _, have := r.aliases[obj]; have {
			return // first binding wins; keeps resolution deterministic
		}
		r.aliases[obj] = p
	}
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				addAlias(lhs, peelRef(r.info, n.Rhs[i]))
			}
		case *ast.RangeStmt:
			// Ranged values of a slot-rooted map or slice still point
			// into the slot's state.
			if n.Value != nil {
				p := peelRef(r.info, n.X)
				p.path = joinPath(p.path, "[*]")
				addAlias(n.Value, p)
			}
		}
		return true
	})
	return r
}

// resolve maps a peeled root object to (slot index, base path),
// following alias chains with a depth bound.
func (r *mutResolver) resolve(obj types.Object) (int, string, bool) {
	path := ""
	for depth := 0; depth < 8; depth++ {
		if obj == nil {
			return 0, "", false
		}
		if slot, ok := r.slotOf[obj]; ok {
			return slot, path, true
		}
		p, ok := r.aliases[obj]
		if !ok {
			return 0, "", false
		}
		path = joinPath(p.path, path)
		obj = p.obj
	}
	return 0, "", false
}

// resolveExpr peels an expression and resolves its root to a slot.
func (r *mutResolver) resolveExpr(e ast.Expr) (int, peeled, bool) {
	p := peelRef(r.info, e)
	slot, base, ok := r.resolve(p.obj)
	if !ok {
		return 0, p, false
	}
	p.path = joinPath(base, p.path)
	return slot, p, true
}

// mutCollect recomputes d's local + call-propagated effects against
// the current summaries and merges them into sums[d.Fn], reporting
// whether anything new was recorded.
func mutCollect(d *FuncDecl, sums map[*types.Func]*MutSummary) bool {
	r := newMutResolver(d)
	sum := sums[d.Fn]
	changed := false
	record := func(add func() bool) {
		if add() {
			changed = true
		}
	}
	addMut := func(slot int, path string) {
		record(func() bool {
			e := sum.effects(slot)
			if e.mutates[path] {
				return false
			}
			e.mutates[path] = true
			return true
		})
	}
	addEsc := func(slot int, desc string) {
		record(func() bool {
			e := sum.effects(slot)
			if e.escapes[desc] {
				return false
			}
			e.escapes[desc] = true
			return true
		})
	}
	addApp := func(slot int) {
		record(func() bool {
			e := sum.effects(slot)
			if e.appends {
				return false
			}
			e.appends = true
			return true
		})
	}

	// mentionSlots finds slot-rooted reference values the expression
	// carries onward (escape scans of RHSes, return values, and go
	// statements).
	mentionSlots := func(e ast.Expr, visit func(slot int, path string)) {
		carriedRefs(r.info, e, func(p peeled) {
			if slot, base, ok := r.resolve(p.obj); ok {
				visit(slot, joinPath(base, p.path))
			}
		})
	}

	// escapeTarget renders an assignment LHS as a store destination
	// that outlives the call, or returns false.
	escapeTarget := func(lhs ast.Expr) (string, int, string, bool) {
		p := peelRef(r.info, lhs)
		if v, ok := p.obj.(*types.Var); ok && isPackageLevel(v) {
			return packageVarSym(v).display + p.path, -1, "", true
		}
		if slot, pp, ok := r.resolveExpr(lhs); ok && pp.indirect {
			name := "receiver/param"
			if v, ok := pp.obj.(*types.Var); ok && v.Name() != "" {
				name = v.Name()
			}
			return name + pp.path, slot, pp.path, true
		}
		return "", 0, "", false
	}

	handleWrite := func(lhs ast.Expr) {
		slot, p, ok := r.resolveExpr(lhs)
		if !ok || !p.indirect {
			return
		}
		addMut(slot, p.path)
	}

	handleAssign := func(assign *ast.AssignStmt) {
		for _, lhs := range assign.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			handleWrite(lhs)
		}
		// Escape scan: storing a reference-typed slot value into a
		// location that outlives the call (package variable, state
		// reachable from another slot).
		for i, lhs := range assign.Lhs {
			target, tslot, tpath, ok := escapeTarget(lhs)
			if !ok {
				continue
			}
			var rhs ast.Expr
			if len(assign.Lhs) == len(assign.Rhs) {
				rhs = assign.Rhs[i]
			} else if len(assign.Rhs) == 1 {
				rhs = assign.Rhs[0]
			}
			if rhs == nil {
				continue
			}
			mentionSlots(rhs, func(slot int, path string) {
				if tslot == slot && tpath == path {
					return // x = append(x, ...): the destination itself
				}
				addEsc(slot, "stored into "+target)
			})
		}
		// Append-through-indirection: x = append(x, ...) growing a slot.
		if len(assign.Lhs) == len(assign.Rhs) {
			for i, rhs := range assign.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinCall(r.info, call, "append") || len(call.Args) == 0 {
					continue
				}
				slot, p, ok := r.resolveExpr(assign.Lhs[i])
				if !ok || !p.indirect {
					continue
				}
				if aslot, ap, aok := r.resolveExpr(call.Args[0]); aok && aslot == slot && ap.path == p.path {
					addApp(slot)
				}
			}
		}
	}

	handleCall := func(call *ast.CallExpr) {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := r.info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "delete", "copy":
					if len(call.Args) > 0 {
						if slot, p, ok := r.resolveExpr(call.Args[0]); ok {
							addMut(slot, joinPath(p.path, "[*]"))
						}
					}
				}
				return
			}
		}
		callee, slotArgs := calleeSlotArgs(r.info, call)
		if callee == nil {
			return
		}
		csum := sums[callee]
		if csum == nil {
			return
		}
		for j, args := range slotArgs {
			eff := csum.slots[j]
			if eff == nil {
				continue
			}
			for _, arg := range args {
				slot, p, ok := r.resolveExpr(arg)
				if !ok {
					continue
				}
				for path := range eff.mutates {
					addMut(slot, joinPath(p.path, path))
				}
				if eff.appends {
					addApp(slot)
				}
				if len(eff.escapes) > 0 && (p.addrOf || isRefType(r.info.TypeOf(arg))) {
					addEsc(slot, "escapes via "+funcDisplayName(callee))
				}
			}
		}
	}

	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n != nil {
					walk(n.Body, true)
				}
				return false
			case *ast.AssignStmt:
				handleAssign(n)
			case *ast.IncDecStmt:
				handleWrite(n.X)
			case *ast.CallExpr:
				handleCall(n)
			case *ast.GoStmt:
				goCarriedRefs(r.info, n.Call, func(p peeled) {
					if slot, _, ok := r.resolve(p.obj); ok {
						addEsc(slot, "captured by go statement")
					}
				})
			case *ast.ReturnStmt:
				if inLit {
					return true // a closure's return is not the function's
				}
				for _, res := range n.Results {
					mentionSlots(res, func(slot int, _ string) {
						addEsc(slot, "returned")
					})
				}
			}
			return true
		})
	}
	walk(d.Decl.Body, false)
	return changed
}

// carriedRefs visits the reference-typed roots whose value the
// expression carries onward: the peeled expression itself, elements of
// composite literals, addressed operands (&buf, &buf[0]), and
// identifiers captured by a function literal. A scalar read through a
// reference (buf[0] on a []float64) carries nothing — the float is
// copied, the buffer stays behind.
func carriedRefs(info *types.Info, e ast.Expr, visit func(peeled)) {
	p := peelRef(info, e)
	if p.obj != nil {
		if p.addrOf || isRefType(info.TypeOf(e)) {
			visit(p)
		}
		return
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			carriedRefs(info, el, visit)
		}
	case *ast.KeyValueExpr:
		carriedRefs(info, x.Key, visit)
		carriedRefs(info, x.Value, visit)
	case *ast.FuncLit:
		// A closure carries everything it captures.
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && isRefType(v.Type()) {
					visit(peeled{obj: v})
				}
			}
			return true
		})
	}
}

// goCarriedRefs applies carriedRefs to everything a go statement
// evaluates and hands to the new goroutine: the callee expression (a
// closure's captures, a method value's receiver) and every argument.
func goCarriedRefs(info *types.Info, call *ast.CallExpr, visit func(peeled)) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			carriedRefs(info, sel.X, visit)
		}
	} else {
		carriedRefs(info, call.Fun, visit)
	}
	for _, a := range call.Args {
		carriedRefs(info, a, visit)
	}
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// trackInfo describes one tracked local: where and from which source
// function its value was acquired, and where inside the variable the
// source value sits — "" means the variable itself holds it, "[*]"
// means it sits in an element of the variable (bufs[i] = pool.Get()
// stores acquired values in a container; tracking the container keeps
// them visible). Paths collapse indices, so any element stands for all
// of them.
type trackInfo struct {
	desc string
	pos  token.Pos
	path string
}

// tracker holds one function's tracked locals.
type tracker struct {
	info *types.Info
	// source matches the calls whose result is tracked, naming them.
	source func(*ast.CallExpr) (string, bool)
	// vars maps each tracked local to where and how it holds the value.
	vars map[*types.Var]trackInfo
}

// track collects, flow-insensitively, the local variables of d whose
// reference-typed value derives from a call matched by isSource —
// directly, through alias assignments and multi-value binds, or via
// storage into an element or field of a local container — into the
// tracker's var → acquisition info. Used by poolescape (values from
// sync.Pool.Get / lint:scratch accessors) and cowstore
// (atomic.Pointer.Load snapshots).
func track(d *FuncDecl, isSource func(*ast.CallExpr) (string, bool)) *tracker {
	info := d.Pkg.Info
	t := &tracker{info: info, source: isSource, vars: make(map[*types.Var]trackInfo)}
	tracked := t.vars
	bind := func(lhs ast.Expr, ti trackInfo) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				return
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			v, ok := obj.(*types.Var)
			if !ok || !isRefType(v.Type()) {
				return
			}
			if isPackageLevel(v) {
				// Storing into a package variable is an escape (the store
				// analyzers report it at the assignment); the global itself
				// is not a freshly acquired value.
				return
			}
			if _, have := tracked[v]; !have {
				tracked[v] = ti
			}
			return
		}
		// Storing into an element or field of a local container
		// (preds[i] = src()): track the container, with the store path
		// prepended, so later reads and writes through it still see the
		// source value.
		p := peelRef(info, lhs)
		v, ok := p.obj.(*types.Var)
		if !ok || isPackageLevel(v) || p.path == "" || !isRefType(info.TypeOf(lhs)) {
			return
		}
		ti.path = joinPath(p.path, ti.path)
		if _, have := tracked[v]; !have {
			tracked[v] = ti
		}
	}
	// Flow-insensitive: iterate until no new variable is tracked, so
	// aliases established before their source assignment (loops) are
	// still found; bounded by the variable count.
	for changed := true; changed; {
		changed = false
		before := len(tracked)
		ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if ti, ok := t.value(n.Rhs[i]); ok {
							bind(lhs, ti)
						}
					}
				} else if len(n.Rhs) == 1 {
					if ti, ok := t.value(n.Rhs[0]); ok {
						for _, lhs := range n.Lhs {
							bind(lhs, ti)
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						if ti, ok := t.value(n.Values[i]); ok {
							bind(name, ti)
						}
					}
				} else if len(n.Values) == 1 {
					if ti, ok := t.value(n.Values[0]); ok {
						for _, name := range n.Names {
							bind(name, ti)
						}
					}
				}
			case *ast.RangeStmt:
				// Ranging over a tracked map or slice: the values still
				// point into the tracked state. Ranging yields the
				// container's elements, so a container-tracked path
				// sheds its leading index step.
				if n.Value != nil {
					if ti, ok := t.value(n.X); ok {
						if strings.HasPrefix(ti.path, "[*]") {
							ti.path = ti.path[len("[*]"):]
							bind(n.Value, ti)
						} else if ti.path == "" {
							bind(n.Value, ti)
						}
					}
				}
			}
			return true
		})
		if len(tracked) != before {
			changed = true
		}
	}
	return t
}

// value reports whether e evaluates to a tracked value — a source
// call's result or state inside a tracked local — or to a container
// holding one deeper in, and where (trackInfo.path, "" for the value
// itself).
func (t *tracker) value(e ast.Expr) (trackInfo, bool) {
	p := peelRef(t.info, e)
	if p.call != nil {
		if desc, ok := t.source(p.call); ok {
			return trackInfo{desc: desc, pos: p.call.Pos()}, true
		}
		return trackInfo{}, false
	}
	v, ok := p.obj.(*types.Var)
	if !ok {
		return trackInfo{}, false
	}
	ti, ok := t.vars[v]
	if !ok || !isRefType(t.info.TypeOf(e)) {
		return trackInfo{}, false
	}
	switch {
	case strings.HasPrefix(p.path, ti.path):
		// e reads the source value itself (or state inside it): the
		// result is the value, path-free.
		return trackInfo{desc: ti.desc, pos: ti.pos}, true
	case strings.HasPrefix(ti.path, p.path):
		// e reads a container that holds the source value deeper in;
		// the remainder locates it.
		return trackInfo{desc: ti.desc, pos: ti.pos, path: ti.path[len(p.path):]}, true
	}
	return trackInfo{}, false
}

// root peels e and returns the tracked value at its root — a tracked
// local, or a call whose result is tracked — with the peeled access
// path from there.
func (t *tracker) root(e ast.Expr) (peeled, trackInfo, bool) {
	p := peelRef(t.info, e)
	if v, ok := p.obj.(*types.Var); ok {
		ti, ok := t.vars[v]
		return p, ti, ok
	}
	if p.call != nil {
		ti, ok := t.value(p.call)
		return p, ti, ok
	}
	return p, trackInfo{}, false
}

// pathMutates reports whether a write peeled to writePath mutates a
// value tracked at tiPath within the same root: writing AT the tracked
// path replaces the reference (legal — preds[i] = fresh), writing
// strictly beyond it reaches into the tracked value's own state.
func pathMutates(writePath, tiPath string) bool {
	return strings.HasPrefix(writePath, tiPath) && len(writePath) > len(tiPath)
}

// calleeMutationHit returns the callee mutation path (one of paths,
// the callee's per-slot summary) that reaches a value tracked at
// tiPath when the argument peeled to argPath within the same root; ""
// when the callee's writes cannot touch the tracked value. An argument
// at or inside the tracked value is hit by any mutation; an argument
// that is a container holding the tracked value deeper in is hit only
// by callee writes that reach strictly past the remaining path —
// replacing the element is legal, mutating through it is not.
func calleeMutationHit(paths []string, argPath, tiPath string) string {
	if len(paths) == 0 {
		return ""
	}
	if strings.HasPrefix(argPath, tiPath) {
		return paths[0]
	}
	if strings.HasPrefix(tiPath, argPath) {
		rem := tiPath[len(argPath):]
		for _, mp := range paths {
			if pathMutates(mp, rem) {
				return mp
			}
		}
	}
	return ""
}

// SummarySlot is the JSON shape of one slot of a function's
// mutation/escape summary.
type SummarySlot struct {
	Index   int      `json:"index"`
	Name    string   `json:"name"`
	Mutates []string `json:"mutates,omitempty"`
	Appends bool     `json:"appends,omitempty"`
	Escapes []string `json:"escapes,omitempty"`
}

// SummaryRecord is the JSON shape of one function's mutation/escape
// summary, emitted by lsdlint -debug-summaries.
type SummaryRecord struct {
	Func  string        `json:"func"`
	File  string        `json:"file"`
	Line  int           `json:"line"`
	Slots []SummarySlot `json:"slots"`
}

// MutationSummaryDump loads the program at the given module-relative
// import paths (the whole module when paths is nil) and renders every
// function with a non-empty mutation/escape summary, sorted by source
// position — the -debug-summaries artifact CI archives beside the
// SARIF.
func MutationSummaryDump(root, modpath string, paths []string) ([]SummaryRecord, error) {
	_, prog, err := loadProgram(root, modpath, paths)
	if err != nil {
		return nil, err
	}
	sums := MutSummaries(prog)
	var out []SummaryRecord
	for _, d := range prog.Decls() {
		sum := sums[d.Fn]
		if sum == nil || len(sum.slots) == 0 {
			continue
		}
		slots := funcSlots(d.Fn)
		pos := d.Pkg.Fset.Position(d.Decl.Pos())
		rec := SummaryRecord{
			Func: d.Fn.Pkg().Path() + "." + funcDisplayName(d.Fn),
			File: pos.Filename,
			Line: pos.Line,
		}
		indices := make([]int, 0, len(sum.slots))
		for i := range sum.slots {
			indices = append(indices, i)
		}
		sort.Ints(indices)
		for _, i := range indices {
			name := "_"
			if i < len(slots) && slots[i].Name() != "" {
				name = slots[i].Name()
			}
			rec.Slots = append(rec.Slots, SummarySlot{
				Index:   i,
				Name:    name,
				Mutates: sum.Mutates(i),
				Appends: sum.Appends(i),
				Escapes: sum.Escapes(i),
			})
		}
		out = append(out, rec)
	}
	return out, nil
}
