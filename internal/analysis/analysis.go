// Package analysis is lsdlint's stdlib-only static-analysis engine.
// It loads every package in the module with go/parser, type-checks it
// with go/types (resolving the standard library from source via
// go/importer, so the repo keeps its no-external-dependency rule),
// builds a whole-program view — a static call graph plus a
// function-summary dataflow substrate (see Program and FixpointUnion)
// — and runs a suite of project-specific analyzers that machine-check
// the pipeline's determinism and concurrency invariants:
//
//   - maprangefloat: no floating-point accumulation in Go map
//     iteration order (the PR 1 nondeterminism class), including
//     accumulation through a helper's pointer parameter one summary
//     level deep.
//   - seedflow: every rand.NewSource seed is a constant or derived via
//     learn.DeriveSeed, and no *rand.Rand is captured by a go-launched
//     function literal.
//   - confine: go statements appear only in internal/parallel and in
//     main packages, and sync.Mutex/RWMutex only in internal/memo
//     and internal/serve (concurrency stays in the packages built for
//     it, so no lock-order cycle can form).
//   - workerpure: closures handed to parallel.Map/ForEach write
//     nothing but their own locals and their own result slot,
//     transitively through their callees.
//   - statecodec: every exported field of a struct the artifact codec
//     touches must flow into an encode call and receive a decode
//     assignment, interprocedurally from the `// lint:codec` roots, so
//     new state fields cannot silently miss the wire format.
//   - snapshotonce: code reachable from an HTTP handler loads the
//     atomic.Pointer registry snapshot at most once per request (the
//     hot-swap torn-read class).
//   - boundedread: a length read from the wire must pass a relational
//     bounds check before it reaches make or io.ReadFull, including
//     through callee parameters (decoder over-allocation class).
//   - hotalloc: functions reachable from `// lint:hot` roots avoid
//     fmt.Sprintf-style formatting, map allocation, and unhinted
//     append-in-loop growth.
//   - ctxflow: request-reachable fan-out through parallel.Map/ForEach
//     runs under a context derived from the request, and
//     context.Background/TODO in request-reachable code is a finding
//     (client disconnect must cancel in-flight work).
//   - errflow: errors from io/json/artifact/parallel calls in request-
//     or codec-reachable code are checked, returned, or explicitly
//     suppressed, never silently discarded.
//   - poolescape: values from sync.Pool.Get or `// lint:scratch`
//     accessors are released back to the pool and never escape the
//     acquiring function (fields, caches, goroutines, returns).
//   - cowstore: values published through the serve registry's
//     atomic.Pointer.Store are frozen after publication, and Load
//     snapshots are never written through.
//
// ctxflow and errflow share the value-flow substrate in flow.go:
// def-use chains inside a function, plus interprocedural param→sink
// and param→result summaries over the static call graph.
// poolescape and cowstore share the mutation/escape summary substrate
// in mutsum.go: per-function summaries of which parameters a function
// mutates (and through which field/element paths) and which escape,
// iterated to fixpoint over the call graph; workerpure and hotalloc
// consult the same summaries to see writes and appends a callee
// performs on a worker's or hot path's behalf.
//
// Findings can be suppressed with a justified directive on (or
// immediately above) the offending line:
//
//	//lint:ignore <check> <reason>
//
// A directive without a reason is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	// Position locates the finding.
	Position token.Position
	// Check names the analyzer (or "ignore" for malformed
	// suppression directives).
	Check string
	// Message explains the finding and how to fix it.
	Message string
}

// String renders the diagnostic in the conventional
// file:line:col: check: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Check, d.Message)
}

// Analyzer is one lint check: a name (used in diagnostics and in
// //lint:ignore directives), a one-line doc string, and a Run function
// invoked once per loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) unit of work. Analyzers read
// the syntax and type information and report findings via Reportf.
// Prog is the whole-program view shared by every pass of one lint
// run: interprocedural analyzers query its call graph and function
// summaries, and stash program-wide results in its cache so they are
// computed once, not once per package.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
	Prog  *Program

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos under the running analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Fset.Position(pos),
		Check:    p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DefaultAnalyzers returns the full lsdlint suite.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		MapRangeFloat,
		SeedFlow,
		Confine,
		WorkerPure,
		StateCodec,
		SnapshotOnce,
		BoundedRead,
		HotAlloc,
		CtxFlow,
		ErrFlow,
		PoolEscape,
		CowStore,
	}
}

// SelectChecks filters analyzers by a comma-separated spec: bare
// names keep only those analyzers, !-prefixed names exclude them from
// the full set, and the two forms cannot be mixed. An unknown name is
// an error so typos fail loudly instead of silently linting nothing.
func SelectChecks(analyzers []*Analyzer, spec string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	include, exclude := make(map[string]bool), make(map[string]bool)
	for _, raw := range strings.Split(spec, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		negated := strings.HasPrefix(name, "!")
		if negated {
			name = name[1:]
		}
		if byName[name] == nil {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown check %q (known: %s)", name, strings.Join(known, ", "))
		}
		if negated {
			exclude[name] = true
		} else {
			include[name] = true
		}
	}
	if len(include) > 0 && len(exclude) > 0 {
		return nil, fmt.Errorf("cannot mix included and !-excluded checks in one -checks list")
	}
	if len(include) == 0 && len(exclude) == 0 {
		return analyzers, nil
	}
	var out []*Analyzer
	for _, a := range analyzers {
		if len(include) > 0 && !include[a.Name] {
			continue
		}
		if exclude[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers runs the analyzers over a single loaded package,
// wrapping it in a one-package Program (interprocedural analyzers see
// only this package's functions), applies the package's //lint:ignore
// directives, and returns the surviving diagnostics (plus any
// directive-syntax diagnostics) sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return AnalyzePackage(NewProgram([]*Package{pkg}), pkg, analyzers)
}

// AnalyzePackage runs the analyzers over one package of a program,
// applies the package's //lint:ignore directives, and returns the
// surviving diagnostics sorted by position. Interprocedural analyzers
// resolve calls and summaries through prog, so findings that depend on
// other packages' code are still reported against this package's
// positions.
func AnalyzePackage(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return analyzePackage(prog, pkg, analyzers, nil)
}

// analyzePackage is AnalyzePackage with an optional per-analyzer
// wall-clock accumulator keyed by analyzer name.
func analyzePackage(prog *Program, pkg *Package, analyzers []*Analyzer, elapsed map[string]time.Duration) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     pkg.Fset,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Files:    pkg.Files,
			Prog:     prog,
			analyzer: a,
			diags:    &diags,
		}
		start := time.Now()
		a.Run(pass)
		if elapsed != nil {
			elapsed[a.Name] += time.Since(start)
		}
	}
	diags = applyIgnores(pkg, diags)
	sortDiagnostics(diags)
	return diags
}

// Lint loads the packages at the given module-relative import paths
// (every package in the module when paths is nil), builds the
// whole-program view over everything the loader touched (requested
// packages plus their module-local dependencies, so interprocedural
// summaries see call targets outside the requested set), and runs the
// analyzers over each requested package. The returned diagnostics are
// sorted by position. A package that fails to parse or type-check is a
// hard error, not a diagnostic.
func Lint(root, modpath string, paths []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := lintTimed(root, modpath, paths, analyzers, false)
	return diags, err
}

// AnalyzerTiming is the cumulative wall-clock cost of one analyzer
// across every linted package of a run.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// LintTimed is Lint plus per-analyzer wall-clock timings, in suite
// order. Program-wide results cached across analyzers (call graphs,
// reachability, taint fixpoints) are attributed to whichever analyzer
// computes them first, so early entries can look more expensive than
// a solo run would show.
func LintTimed(root, modpath string, paths []string, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming, error) {
	return lintTimed(root, modpath, paths, analyzers, true)
}

func lintTimed(root, modpath string, paths []string, analyzers []*Analyzer, timed bool) ([]Diagnostic, []AnalyzerTiming, error) {
	pkgs, prog, err := loadProgram(root, modpath, paths)
	if err != nil {
		return nil, nil, err
	}
	var elapsed map[string]time.Duration
	if timed {
		elapsed = make(map[string]time.Duration, len(analyzers))
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analyzePackage(prog, pkg, analyzers, elapsed)...)
	}
	sortDiagnostics(diags)
	var timings []AnalyzerTiming
	if timed {
		for _, a := range analyzers {
			timings = append(timings, AnalyzerTiming{Name: a.Name, Elapsed: elapsed[a.Name]})
		}
	}
	return diags, timings, nil
}

// loadProgram loads the requested packages (all module packages when
// paths is nil) and builds the Program spanning every module package
// the loads pulled in.
func loadProgram(root, modpath string, paths []string) ([]*Package, *Program, error) {
	loader := NewLoader(root, modpath)
	if paths == nil {
		var err error
		paths, err = loader.ModulePackages()
		if err != nil {
			return nil, nil, err
		}
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: loading %s: %w", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, NewProgram(loader.Packages()), nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Check < b.Check
	})
}
