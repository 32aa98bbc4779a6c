package analysis_test

import (
	"go/types"
	"testing"

	"repro/internal/analysis"
)

// loadFixtureProgram loads one fixture package and wraps it in
// a single-package program.
func loadFixtureProgram(t *testing.T, name string) (*analysis.Program, *analysis.Package) {
	t.Helper()
	root, modpath, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(root, modpath)
	pkg, err := loader.Load(modpath + "/internal/analysis/testdata/src/" + name)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return analysis.NewProgram([]*analysis.Package{pkg}), pkg
}

func fixtureFunc(t *testing.T, pkg *analysis.Package, name string) *types.Func {
	t.Helper()
	fn, ok := pkg.Pkg.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("fixture has no function %q", name)
	}
	return fn
}

func TestProgramCallGraph(t *testing.T) {
	prog, pkg := loadFixtureProgram(t, "callgraph")

	// A statically resolvable call is an edge.
	caller := fixtureFunc(t, pkg, "reenterViaCall")
	callee := fixtureFunc(t, pkg, "lockA")
	found := false
	for _, c := range prog.Callees(caller) {
		if c == callee {
			found = true
		}
	}
	if !found {
		t.Errorf("Callees(reenterViaCall) = %v, want to contain lockA", prog.Callees(caller))
	}
	if prog.HasUnresolvedCalls(caller) {
		t.Errorf("reenterViaCall marked unresolved; every call in it is static")
	}

	// A call through a func value is not an edge, and marks the caller
	// unresolved; method calls on concrete receivers (r.a.Lock) still
	// resolve, even into packages outside the program.
	dyn := fixtureFunc(t, pkg, "inLiteral")
	sawLock := false
	for _, c := range prog.Callees(dyn) {
		if c.Name() == "f" {
			t.Errorf("Callees(inLiteral) contains the func value f; that call is dynamic")
		}
		if c.Name() == "Lock" && c.Pkg() != nil && c.Pkg().Path() == "sync" {
			sawLock = true
		}
	}
	if !sawLock {
		t.Errorf("Callees(inLiteral) = %v, want to contain sync Lock (concrete method resolution)", prog.Callees(dyn))
	}
	if !prog.HasUnresolvedCalls(dyn) {
		t.Errorf("inLiteral not marked unresolved despite calling a func value")
	}

	// Functions with no declaration in the program are unknown by
	// construction.
	if !prog.HasUnresolvedCalls(nil) {
		t.Errorf("HasUnresolvedCalls(nil) = false, want true")
	}

	// DeclOf round-trips and Decls is position-sorted.
	if d := prog.DeclOf(callee); d == nil || d.Fn != callee {
		t.Errorf("DeclOf(lockA) = %v", d)
	}
	decls := prog.Decls()
	if len(decls) == 0 {
		t.Fatal("Decls() is empty")
	}
	for i := 1; i < len(decls); i++ {
		pi := decls[i-1].Pkg.Fset.Position(decls[i-1].Decl.Pos())
		pj := decls[i].Pkg.Fset.Position(decls[i].Decl.Pos())
		if pi.Filename == pj.Filename && pi.Offset > pj.Offset {
			t.Fatalf("Decls() out of order at %d: %v after %v", i, pj, pi)
		}
	}
}

func TestFixpointUnionPropagates(t *testing.T) {
	prog, pkg := loadFixtureProgram(t, "callgraph")

	// Seed each function with its own name; the fixpoint must propagate
	// callee names to callers across the call graph.
	facts := analysis.FixpointUnion(prog, func(d *analysis.FuncDecl) map[string]bool {
		return map[string]bool{d.Fn.Name(): true}
	})

	caller := fixtureFunc(t, pkg, "reenterViaCall")
	got := facts[caller]
	if !got["reenterViaCall"] || !got["lockA"] {
		t.Errorf("facts[reenterViaCall] = %v, want own fact and lockA's", got)
	}
	leaf := fixtureFunc(t, pkg, "lockA")
	if len(facts[leaf]) != 1 {
		t.Errorf("facts[lockA] = %v, want only its own fact (no callees)", facts[leaf])
	}
}

func TestProgramCacheMemoizes(t *testing.T) {
	prog, _ := loadFixtureProgram(t, "callgraph")
	calls := 0
	compute := func() any { calls++; return calls }
	if v := prog.Cache("k", compute); v.(int) != 1 {
		t.Fatalf("first Cache = %v, want 1", v)
	}
	if v := prog.Cache("k", compute); v.(int) != 1 {
		t.Fatalf("second Cache = %v, want memoized 1", v)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}
