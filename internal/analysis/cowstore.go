package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CowStore enforces the publish-then-freeze contract on the serve
// registry's copy-on-write snapshots: a value published through
// atomic.Pointer.Store is read concurrently, without locks, by every
// in-flight request, so it must be fully constructed before Store and
// never written afterwards — and the mirror obligation holds on the
// read side: a snapshot obtained from atomic.Pointer.Load is shared
// with every other reader and must never be mutated, only copied.
//
// Three rules:
//
//   - after Store(&x): no write rooted at x (element assignment,
//     delete, append growth) may follow the publication, directly or
//     via a callee whose mutation summary (mutsum.go) writes that
//     parameter — the interprocedural case. Construction writes before
//     Store are the intended copy-on-write window.
//   - Load snapshots: a value tracked to atomic.Pointer.Load — or
//     returned by a helper whose result derives from one, like the
//     registry's Get — must not be written through, directly or via a
//     mutating callee.
//   - writes through the Load expression itself
//     ((*p.Load())[k] = v) are always findings.
//
// The after-Store check is source-position based: a Store inside a
// loop followed textually by a write above it is out of scope (none
// exist in this tree; the registry's Set/Drop publish last).
var CowStore = &Analyzer{
	Name: "cowstore",
	Doc:  "values published via atomic.Pointer.Store are frozen; Load snapshots are read-only",
	Run:  runCowStore,
}

func runCowStore(pass *Pass) {
	sources := snapshotSources(pass.Prog)
	sums := MutSummaries(pass.Prog)
	for _, d := range pass.Prog.Decls() {
		if d.Pkg.Pkg != pass.Pkg {
			continue
		}
		if sources[d.Fn] {
			continue // a snapshot accessor hands the snapshot out; its callers are checked
		}
		checkCowStore(pass, d, sources, sums)
	}
}

// isAtomicPointerStore reports whether call invokes Store on a
// sync/atomic Pointer receiver.
func isAtomicPointerStore(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal || selection.Obj().Name() != "Store" {
		return false
	}
	named := namedOf(selection.Recv())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pointer" && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// snapshotSources computes (once per program, cached) the functions
// whose return value derives from an atomic.Pointer.Load — snapshot
// accessors like the registry's Get — closed to fixpoint so helpers
// layered on accessors count too.
func snapshotSources(prog *Program) map[*types.Func]bool {
	return prog.Cache("cowstore.sources", func() any {
		src := make(map[*types.Func]bool)
		for changed := true; changed; {
			changed = false
			for _, d := range prog.Decls() {
				if src[d.Fn] {
					continue
				}
				info := d.Pkg.Info
				if returnsDerivedFrom(d, func(call *ast.CallExpr) bool {
					if isAtomicPointerLoad(info, call) {
						return true
					}
					fn := staticOrIfaceCallee(info, call)
					return fn != nil && src[fn]
				}) {
					src[d.Fn] = true
					changed = true
				}
			}
		}
		return src
	}).(map[*types.Func]bool)
}

// checkCowStore verifies one function against both halves of the
// contract.
func checkCowStore(pass *Pass, d *FuncDecl, sources map[*types.Func]bool, sums map[*types.Func]*MutSummary) {
	info := d.Pkg.Info

	// published maps each variable published via Store(&x) (or
	// Store(x)) to the position of its earliest publication.
	published := make(map[*types.Var]token.Pos)
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicPointerStore(info, call) || len(call.Args) == 0 {
			return true
		}
		p := peelRef(info, call.Args[0])
		if v, ok := p.obj.(*types.Var); ok {
			if prev, have := published[v]; !have || call.Pos() < prev {
				published[v] = call.Pos()
			}
		}
		return true
	})

	// snapshots are the variables holding Load results (or values from
	// snapshot-accessor helpers), read-only from birth.
	snapshots := track(d, func(call *ast.CallExpr) (string, bool) {
		if isAtomicPointerLoad(info, call) {
			return "atomic.Pointer.Load", true
		}
		if fn := staticOrIfaceCallee(info, call); fn != nil && sources[fn] {
			return funcDisplayName(fn), true
		}
		return "", false
	}).vars

	// frozen classifies a write root: published-and-past-publication or
	// a snapshot. No early-out on empty published/snapshots sets: the
	// in-place case ((*p.Load())[k] = v) needs neither. The second
	// result is the tracked path inside the root ("" except for
	// container-tracked snapshots); call sites compare it against the
	// peeled path to separate mutating the frozen value from replacing
	// a container slot that merely held it.
	frozen := func(p peeled, pos token.Pos) (string, string, bool) {
		v, ok := p.obj.(*types.Var)
		if !ok {
			if p.call != nil && isAtomicPointerLoad(info, p.call) {
				return "the snapshot loaded in place from atomic.Pointer.Load", "", true
			}
			return "", "", false
		}
		if storePos, ok := published[v]; ok && pos > storePos {
			return v.Name() + ", already published via atomic.Pointer.Store", "", true
		}
		if ti, ok := snapshots[v]; ok {
			return v.Name() + ", a shared snapshot obtained from " + ti.desc, ti.path, true
		}
		return "", "", false
	}

	reportWrite := func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"writes to %s; published snapshots are frozen — build a fresh copy, then Store it",
			what)
	}

	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				p := peelRef(info, lhs)
				if !p.indirect {
					continue
				}
				if what, tiPath, ok := frozen(p, lhs.Pos()); ok && pathMutates(p.path, tiPath) {
					reportWrite(lhs.Pos(), what)
				}
			}
		case *ast.IncDecStmt:
			p := peelRef(info, n.X)
			if p.indirect {
				if what, tiPath, ok := frozen(p, n.X.Pos()); ok && pathMutates(p.path, tiPath) {
					reportWrite(n.X.Pos(), what)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					if (b.Name() == "delete" || b.Name() == "copy") && len(n.Args) > 0 {
						p := peelRef(info, n.Args[0])
						if what, tiPath, ok := frozen(p, n.Pos()); ok && strings.HasPrefix(p.path, tiPath) {
							reportWrite(n.Pos(), what)
						}
					}
					return true
				}
			}
			// Interprocedural: passing a frozen value to a callee whose
			// summary mutates that parameter.
			callee, slotArgs := calleeSlotArgs(info, n)
			if callee == nil {
				return true
			}
			sum := sums[callee]
			if sum == nil {
				return true
			}
			for j, args := range slotArgs {
				paths := sum.Mutates(j)
				if len(paths) == 0 {
					continue
				}
				for _, arg := range args {
					p := peelRef(info, arg)
					if !p.addrOf && !isRefType(info.TypeOf(arg)) {
						continue
					}
					what, tiPath, ok := frozen(p, arg.Pos())
					if !ok {
						continue
					}
					hit := calleeMutationHit(paths, p.path, tiPath)
					if hit == "" {
						continue
					}
					pass.Reportf(arg.Pos(),
						"passes %s to %s, which mutates it (%s); published snapshots are frozen — build a fresh copy, then Store it",
						what, funcDisplayName(callee), hit)
				}
			}
		}
		return true
	})
}
