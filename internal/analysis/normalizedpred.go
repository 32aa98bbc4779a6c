package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NormalizedPred enforces the learn.Prediction contract (§2.2: scores
// sum to 1): an exported function or method that returns a Prediction
// it built itself — a fresh score vector from learn.NewPrediction —
// must call Normalize on it before the value crosses the package
// boundary. Predictions the function merely passes through are not
// re-checked. The meta-learner's regression and the constraint handler
// both consume raw scores arithmetically, so one unnormalized
// distribution silently skews weights instead of failing loudly.
//
// NewPrediction is the only way to build a score vector outside
// package learn: the type's fields are unexported, so a composite
// literal elsewhere is the empty prediction, which has nothing to
// normalize, and package learn's own constructors (Uniform, Clone)
// are normalized by construction.
//
// A returned NewPrediction call is a raw all-zero vector and is
// reported. Other returned call expressions to exported callees are
// trusted (the callee owns the invariant and is itself checked where
// it is declared). A returned call to an *unexported* helper is
// followed one summary level deep: if the helper builds a Prediction
// and returns it without Normalize, the raw distribution escapes
// through the exported caller even though no exported function built
// it — the finding is reported at the helper's offending return so a
// justified //lint:ignore there covers every caller.
var NormalizedPred = &Analyzer{
	Name: "normalizedpred",
	Doc:  "flags learn.Prediction values built with NewPrediction and returned by exported functions without Normalize",
	Run:  runNormalizedPred,
}

// npState carries per-run interprocedural state: memoized helper
// summaries and a dedupe set so a helper shared by several exported
// callers is reported once.
type npState struct {
	helperReturns map[*types.Func][]token.Pos
	reported      map[token.Pos]bool
}

func runNormalizedPred(pass *Pass) {
	pred := predictionType(pass)
	if pred == nil {
		return
	}
	st := &npState{
		helperReturns: make(map[*types.Func][]token.Pos),
		reported:      make(map[token.Pos]bool),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkPredReturns(pass, fd, pred, st)
		}
	}
}

// predictionType finds the learn.Prediction named type visible to this
// package: the package's own Prediction when it is the learn package,
// or the one of an imported */internal/learn package. Matching by
// path suffix lets analyzer fixtures under testdata import the type
// through their own path.
func predictionType(pass *Pass) *types.TypeName {
	lookup := func(pkg *types.Package) *types.TypeName {
		if !strings.HasSuffix(pkg.Path(), "/internal/learn") && pkg.Path() != "repro/internal/learn" {
			return nil
		}
		if tn, ok := pkg.Scope().Lookup("Prediction").(*types.TypeName); ok {
			return tn
		}
		return nil
	}
	if tn := lookup(pass.Pkg); tn != nil {
		return tn
	}
	for _, imp := range pass.Pkg.Imports() {
		if tn := lookup(imp); tn != nil {
			return tn
		}
	}
	return nil
}

// isPredType reports whether t is the Prediction named type.
func isPredType(t types.Type, pred *types.TypeName) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj() == pred
}

// checkPredReturns inspects every return of a Prediction-typed result
// in fd. Function literals are skipped: their returns do not leave the
// enclosing function directly.
func checkPredReturns(pass *Pass, fd *ast.FuncDecl, pred *types.TypeName, st *npState) {
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	results := fn.Type().(*types.Signature).Results()
	hasPred := false
	for i := 0; i < results.Len(); i++ {
		if isPredType(results.At(i).Type(), pred) {
			hasPred = true
		}
	}
	if !hasPred {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != results.Len() {
			return true
		}
		for i := 0; i < results.Len(); i++ {
			if isPredType(results.At(i).Type(), pred) {
				checkReturnedPred(pass, fd, ret.Results[i], ret.Pos(), pred, st)
			}
		}
		return true
	})
}

func checkReturnedPred(pass *Pass, fd *ast.FuncDecl, e ast.Expr, retPos token.Pos, pred *types.TypeName, st *npState) {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if isNewPrediction(pass, e, pred) {
			pass.Reportf(e.Pos(),
				"fresh learn.NewPrediction vector returned from exported %s without Normalize", fd.Name.Name)
			return
		}
		// An exported callee owns the invariant and is checked where
		// it is declared (Normalize itself, constructors, another
		// learner's Predict). An unexported helper is nobody's
		// responsibility unless we follow it one summary level deep.
		checkHelperCall(pass, fd, e, pred, st)
	case *ast.Ident:
		obj := identObj(pass, e)
		if obj == nil || !builtInFunc(pass, fd, obj, pred) {
			return // passed through, not built here
		}
		if !normalizedBefore(pass, fd, obj, retPos) {
			pass.Reportf(e.Pos(),
				"learn.Prediction %q is built in exported %s and returned without a Normalize call on every path", obj.Name(), fd.Name.Name)
		}
	}
}

// checkHelperCall follows a returned call one summary level deep: when
// the callee is an unexported function declared in the program whose
// body builds and returns an unnormalized Prediction, the raw
// distribution escapes through the exported caller fd.
func checkHelperCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, pred *types.TypeName, st *npState) {
	callee := CalleeOf(pass.Info, call)
	if callee == nil || callee.Exported() {
		return
	}
	offending, ok := st.helperReturns[callee]
	if !ok {
		offending = helperUnnormReturns(pass, callee, pred)
		st.helperReturns[callee] = offending
	}
	for _, pos := range offending {
		if st.reported[pos] {
			continue
		}
		st.reported[pos] = true
		pass.Reportf(pos,
			"learn.Prediction built in %s escapes through exported %s without Normalize", callee.Name(), fd.Name.Name)
	}
}

// helperUnnormReturns summarizes an unexported helper: the positions
// of returns where it hands back a Prediction it built with
// NewPrediction without a preceding Normalize. Other returned calls are
// trusted — the summary is one level deep by design.
func helperUnnormReturns(pass *Pass, fn *types.Func, pred *types.TypeName) []token.Pos {
	d := pass.Prog.DeclOf(fn)
	if d == nil {
		return nil
	}
	// The helper lives in some loaded package; summarize with that
	// package's type info, not the reporting pass's.
	hp := &Pass{Fset: d.Pkg.Fset, Pkg: d.Pkg.Pkg, Info: d.Pkg.Info, Files: d.Pkg.Files, Prog: pass.Prog}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	results := sig.Results()
	var out []token.Pos
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != results.Len() {
			return true
		}
		for i := 0; i < results.Len(); i++ {
			if !isPredType(results.At(i).Type(), pred) {
				continue
			}
			switch e := ast.Unparen(ret.Results[i]).(type) {
			case *ast.CallExpr:
				if isNewPrediction(hp, e, pred) {
					out = append(out, e.Pos())
				}
			case *ast.Ident:
				obj := identObj(hp, e)
				if obj == nil || !builtInFunc(hp, d.Decl, obj, pred) {
					continue
				}
				if !normalizedBefore(hp, d.Decl, obj, ret.Pos()) {
					out = append(out, e.Pos())
				}
			}
		}
		return true
	})
	return out
}

// builtInFunc reports whether obj is initialized inside fd by a
// NewPrediction call — i.e. the function constructs the prediction
// rather than receiving it.
func builtInFunc(pass *Pass, fd *ast.FuncDecl, obj types.Object, pred *types.TypeName) bool {
	if obj.Pos() < fd.Body.Pos() || obj.Pos() >= fd.Body.End() {
		return false
	}
	built := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || built {
			return !built
		}
		for i, lhs := range as.Lhs {
			if identObj(pass, lhs) != obj || i >= len(as.Rhs) {
				continue
			}
			if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && isNewPrediction(pass, call, pred) {
				built = true
			}
		}
		return !built
	})
	return built
}

// isNewPrediction reports whether call is a call to the NewPrediction
// constructor of the package that declares the Prediction type.
func isNewPrediction(pass *Pass, call *ast.CallExpr, pred *types.TypeName) bool {
	fn := CalleeOf(pass.Info, call)
	return fn != nil && fn.Name() == "NewPrediction" && fn.Pkg() == pred.Pkg()
}

// normalizedBefore reports whether obj.Normalize() is called anywhere
// in fd before retPos (source order — the same syntactic
// approximation the rest of the suite uses).
func normalizedBefore(pass *Pass, fd *ast.FuncDecl, obj types.Object, retPos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() > retPos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Normalize" {
			return true
		}
		if identObj(pass, sel.X) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
