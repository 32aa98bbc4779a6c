package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// FuncDecl pairs a declared function or method with its syntax and the
// package it lives in. It is the unit the whole-program substrate
// (call graph, function summaries) works over.
type FuncDecl struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// callInfo is one function's resolved outgoing calls.
type callInfo struct {
	// callees are the statically resolved callees of the declared
	// body, function literals excluded (closures run at times the
	// syntactic walk cannot place), deduplicated and sorted by
	// position for deterministic propagation.
	callees []*types.Func
	// unresolved records that the body contains at least one dynamic
	// call (func value, interface method) the builder could not
	// resolve; summary consumers must treat such functions
	// conservatively.
	unresolved bool
}

// Program is the whole-program view over a set of loaded packages: a
// map from every declared function to its syntax, a call graph built
// from statically resolvable calls (package-level functions and
// methods resolved through go/types), and a cache for program-wide
// analyzer state. Dynamic calls — through func values or interface
// methods — are not edges; they are recorded as an "unresolved"
// marker on the caller so summaries can degrade conservatively
// instead of silently claiming completeness.
type Program struct {
	// Pkgs are the packages the program spans, in load order.
	Pkgs []*Package

	decls map[*types.Func]*FuncDecl
	calls map[*types.Func]*callInfo
	cache map[string]any
}

// NewProgram builds the program view over pkgs: it indexes every
// function declaration and resolves the static call graph.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:  pkgs,
		decls: make(map[*types.Func]*FuncDecl),
		calls: make(map[*types.Func]*callInfo),
		cache: make(map[string]any),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.decls[fn] = &FuncDecl{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	for fn, d := range p.decls {
		callees, unresolved := callsIn(d.Pkg.Info, d.Decl.Body, false)
		p.calls[fn] = &callInfo{callees: callees, unresolved: unresolved}
	}
	return p
}

// DeclOf returns the declaration of a function defined in one of the
// program's packages, or nil for functions without source here
// (standard library, interface methods).
func (p *Program) DeclOf(fn *types.Func) *FuncDecl {
	if fn == nil {
		return nil
	}
	return p.decls[fn]
}

// Decls returns every declared function of the program, sorted by
// source position, so analyzers that iterate the whole program emit
// deterministic output.
func (p *Program) Decls() []*FuncDecl {
	out := make([]*FuncDecl, 0, len(p.decls))
	for _, d := range p.decls {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		pi := out[i].Pkg.Fset.Position(out[i].Decl.Pos())
		pj := out[j].Pkg.Fset.Position(out[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return out
}

// Callees returns fn's statically resolved callees (function literals
// excluded), or nil when fn is not declared in the program.
func (p *Program) Callees(fn *types.Func) []*types.Func {
	if c, ok := p.calls[fn]; ok {
		return c.callees
	}
	return nil
}

// HasUnresolvedCalls reports whether fn's body contains a call the
// builder could not resolve statically. Functions not declared in the
// program report true: their behaviour is unknown by construction.
func (p *Program) HasUnresolvedCalls(fn *types.Func) bool {
	if c, ok := p.calls[fn]; ok {
		return c.unresolved
	}
	return true
}

// Cache memoizes a program-wide computation under a key, so analyzers
// that need whole-program results (e.g. the reachability sets of the
// hot-path roots) compute them once and report per package. compute
// may itself call Cache, so cached computations can build on other
// cached computations (the reachability substrate layers this way: a
// taint fixpoint keyed on the cached closure-aware call graph). A
// Program is used from one goroutine: lsdlint and the tests run the
// analyzers one package after another, so the cache needs no lock.
func (p *Program) Cache(key string, compute func() any) any {
	if v, ok := p.cache[key]; ok {
		return v
	}
	v := compute()
	p.cache[key] = v
	return v
}

// CalleeOf resolves the static callee of a call expression: a
// package-level function, or a method resolved through go/types on a
// concrete receiver. A call of an instantiated generic function or
// method resolves to its generic declaration, the object the
// program's declarations are keyed by. It returns nil for dynamic
// calls (func values, interface methods), type conversions, and
// builtins.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // field of func type: dynamic
			}
			if _, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return nil // interface dispatch: dynamic
			}
			fn, _ = sel.Obj().(*types.Func)
		} else {
			// Package-qualified identifier (pkg.F).
			fn, _ = info.Uses[fun.Sel].(*types.Func)
		}
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// callsIn collects the statically resolved callees in node, sorted by
// position and deduplicated, plus whether any call failed to resolve.
// Function-literal bodies are descended into only when includeLits is
// set (closure analyses want them; declared-body summaries do not).
func callsIn(info *types.Info, node ast.Node, includeLits bool) ([]*types.Func, bool) {
	type callee struct {
		fn  *types.Func
		pos int
	}
	var callees []callee
	seen := make(map[*types.Func]bool)
	unresolved := false
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && !includeLits && n != node {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := CalleeOf(info, call); fn != nil {
			if !seen[fn] {
				seen[fn] = true
				callees = append(callees, callee{fn, int(call.Pos())})
			}
			return true
		}
		// Not a resolvable function call: conversions and builtins are
		// fine, anything else is a dynamic call.
		if tv, ok := info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
			return true
		}
		if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			return true // immediately invoked literal: body walked in place
		}
		unresolved = true
		return true
	})
	sort.Slice(callees, func(i, j int) bool { return callees[i].pos < callees[j].pos })
	out := make([]*types.Func, len(callees))
	for i, c := range callees {
		out[i] = c.fn
	}
	return out, unresolved
}
