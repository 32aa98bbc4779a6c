// Command lsdlint runs the repo's custom static-analysis suite over
// the module: project-specific analyzers that machine-check the
// pipeline's determinism and concurrency invariants (see
// internal/analysis). It is built on the Go standard library only.
//
// Usage:
//
//	lsdlint [-root dir] [-format text|json|sarif] [-checks list] [-timing] [-budget d] [-suppressions] [-debug-summaries] [patterns...]
//
// Patterns follow go-tool conventions relative to the module root:
// "./..." (the default) lints every package, "./internal/..." a
// subtree, and "./internal/learn" a single package. Findings print as
// file:line:col: check: message in the default text format; -format
// json emits a JSON array and -format sarif a SARIF 2.1.0 log (for CI
// code-scanning upload). The exit status is the same in every format:
// 1 when there are findings, 2 on usage or load errors, and 0 on a
// clean tree.
//
// -checks selects analyzers by name: a comma-separated list keeps
// only those analyzers, and !-prefixed names exclude from the full
// suite instead ("-checks hotalloc,statecodec" or
// "-checks !poolescape"); an unknown name is a usage error. -timing
// prints each analyzer's cumulative wall-clock cost to stderr — or,
// with -format json, folds it into the output document as a "timings"
// array plus "total_ms", the shape CI archives beside the SARIF log —
// and -budget fails the run (exit 1) when the whole lint — load plus
// analysis — exceeds the given duration, keeping the whole-program
// framework's cost visible in CI as the tree grows.
//
// Individual findings can be suppressed, with a mandatory reason, by a
// "//lint:ignore <check> <reason>" comment on or directly above the
// offending line. -suppressions inventories every such directive (text
// or json format) instead of linting, so suppressed findings stay
// auditable; its exit status is 0 unless loading fails. -checks
// narrows the inventory the same way it narrows a lint run:
// suppressions naming an excluded analyzer are omitted, so a partial
// run diffs against a partial baseline.
//
// -debug-summaries dumps the interprocedural mutation/escape
// summaries (internal/analysis mutsum) that poolescape, cowstore,
// workerpure, and hotalloc reason with, as a JSON array to
// stdout, instead of linting — one record per summarized function with
// its per-slot mutated, appended, and escaping paths. CI archives the
// dump beside the SARIF log so analyzer findings can be traced back to
// the summary facts that produced them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lsdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rootFlag := fs.String("root", "", "module root directory (default: found from the working directory)")
	formatFlag := fs.String("format", "text", "output format: text, json, or sarif")
	supFlag := fs.Bool("suppressions", false, "report every //lint:ignore directive instead of linting")
	debugSumFlag := fs.Bool("debug-summaries", false, "dump the interprocedural mutation/escape summaries as JSON instead of linting")
	checksFlag := fs.String("checks", "", "comma-separated analyzers to run, or !name entries to exclude")
	timingFlag := fs.Bool("timing", false, "print per-analyzer wall-clock timing to stderr")
	budgetFlag := fs.Duration("budget", 0, "fail when the whole lint run exceeds this duration (0 disables)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: lsdlint [-root dir] [-format text|json|sarif] [-checks list] [-timing] [-budget d] [-suppressions] [-debug-summaries] [patterns...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *formatFlag {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "lsdlint: unknown format %q (want text, json, or sarif)\n", *formatFlag)
		return 2
	}
	if *supFlag && *formatFlag == "sarif" {
		fmt.Fprintln(stderr, "lsdlint: -suppressions supports text and json formats only")
		return 2
	}
	if *supFlag && *debugSumFlag {
		fmt.Fprintln(stderr, "lsdlint: -suppressions and -debug-summaries are mutually exclusive")
		return 2
	}

	dir := *rootFlag
	if dir == "" {
		var err error
		if dir, err = os.Getwd(); err != nil {
			fmt.Fprintln(stderr, "lsdlint:", err)
			return 2
		}
	}
	root, modpath, err := analysis.FindModule(dir)
	if err != nil {
		fmt.Fprintln(stderr, "lsdlint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := resolvePatterns(root, modpath, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "lsdlint:", err)
		return 2
	}

	if *supFlag {
		return runSuppressions(root, modpath, paths, *formatFlag, *checksFlag, stdout, stderr)
	}
	if *debugSumFlag {
		return runDebugSummaries(root, modpath, paths, stdout, stderr)
	}

	analyzers := analysis.DefaultAnalyzers()
	if *checksFlag != "" {
		if analyzers, err = analysis.SelectChecks(analyzers, *checksFlag); err != nil {
			fmt.Fprintln(stderr, "lsdlint:", err)
			return 2
		}
	}
	start := time.Now()
	diags, timings, err := analysis.LintTimed(root, modpath, paths, analyzers)
	total := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, "lsdlint:", err)
		return 2
	}
	// With -format json the timings ride inside the JSON document (the
	// shape CI archives beside the SARIF log); every other format keeps
	// them on stderr for humans.
	if *timingFlag && *formatFlag != "json" {
		for _, tm := range timings {
			fmt.Fprintf(stderr, "lsdlint: timing %-16s %8.1fms\n", tm.Name, float64(tm.Elapsed.Microseconds())/1000)
		}
		fmt.Fprintf(stderr, "lsdlint: timing %-16s %8.1fms (load + analysis)\n", "total", float64(total.Microseconds())/1000)
	}
	switch *formatFlag {
	case "json":
		if *timingFlag {
			if err := writeTimedJSON(stdout, root, diags, timings, total); err != nil {
				fmt.Fprintln(stderr, "lsdlint:", err)
				return 2
			}
			break
		}
		if err := writeJSON(stdout, root, diags); err != nil {
			fmt.Fprintln(stderr, "lsdlint:", err)
			return 2
		}
	case "sarif":
		if err := writeSARIF(stdout, root, analyzers, diags); err != nil {
			fmt.Fprintln(stderr, "lsdlint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	overBudget := *budgetFlag > 0 && total > *budgetFlag
	if overBudget {
		fmt.Fprintf(stderr, "lsdlint: run took %v, over the %v budget; the whole-program framework is getting too slow\n",
			total.Round(time.Millisecond), *budgetFlag)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lsdlint: %d finding(s)\n", len(diags))
	}
	if len(diags) > 0 || overBudget {
		return 1
	}
	return 0
}

// runSuppressions prints the //lint:ignore inventory. The report is
// informational: the exit status is 0 even when directives exist
// (malformed ones are ordinary findings of a normal lint run). A
// -checks spec narrows the inventory to the selected analyzers, so a
// partial lint run diffs against a matching partial baseline instead
// of tripping over suppressions for checks it never ran.
func runSuppressions(root, modpath string, paths []string, format, checks string, stdout, stderr io.Writer) int {
	sups, err := analysis.Suppressions(root, modpath, paths)
	if err != nil {
		fmt.Fprintln(stderr, "lsdlint:", err)
		return 2
	}
	if checks != "" {
		selected, err := analysis.SelectChecks(analysis.DefaultAnalyzers(), checks)
		if err != nil {
			fmt.Fprintln(stderr, "lsdlint:", err)
			return 2
		}
		keep := make(map[string]bool, len(selected))
		for _, a := range selected {
			keep[a.Name] = true
		}
		kept := sups[:0]
		for _, s := range sups {
			if keep[s.Check] {
				kept = append(kept, s)
			}
		}
		sups = kept
	}
	if format == "json" {
		if err := writeSuppressionsJSON(stdout, root, sups); err != nil {
			fmt.Fprintln(stderr, "lsdlint:", err)
			return 2
		}
		return 0
	}
	if err := report.WriteSuppressionsText(stdout, root, suppressions(sups)); err != nil {
		fmt.Fprintln(stderr, "lsdlint:", err)
		return 2
	}
	fmt.Fprintf(stderr, "lsdlint: %d suppression(s)\n", len(sups))
	return 0
}

// runDebugSummaries dumps the mutation/escape summary substrate as an
// indented JSON array, file paths relativized to the module root so
// the artifact is stable across checkouts. Exit status 0 unless
// loading fails.
func runDebugSummaries(root, modpath string, paths []string, stdout, stderr io.Writer) int {
	recs, err := analysis.MutationSummaryDump(root, modpath, paths)
	if err != nil {
		fmt.Fprintln(stderr, "lsdlint:", err)
		return 2
	}
	for i := range recs {
		if rel, err := filepath.Rel(root, recs[i].File); err == nil {
			recs[i].File = filepath.ToSlash(rel)
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		fmt.Fprintln(stderr, "lsdlint:", err)
		return 2
	}
	fmt.Fprintf(stderr, "lsdlint: %d function summaries\n", len(recs))
	return 0
}

// resolvePatterns expands go-style package patterns into the module's
// import paths. Patterns are interpreted relative to the module root.
func resolvePatterns(root, modpath string, patterns []string) ([]string, error) {
	all, err := analysis.NewLoader(root, modpath).ModulePackages()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		// Normalize "./x", "x", and "repro/x" to the import path.
		p := strings.TrimPrefix(strings.TrimSuffix(pat, "/"), "./")
		p = strings.TrimSuffix(p, "/")
		recursive := false
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			recursive = true
			p = strings.TrimSuffix(rest, "/")
		}
		var want string
		switch {
		case p == "" || p == ".":
			want = modpath
		case p == modpath || strings.HasPrefix(p, modpath+"/"):
			want = p
		default:
			want = modpath + "/" + p
		}
		matched := false
		for _, path := range all {
			if path == want || (recursive && strings.HasPrefix(path, want+"/")) {
				add(path)
				matched = true
			}
		}
		if recursive && want == modpath {
			matched = true // "./..." on a rootless module dir still matches subpackages
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return out, nil
}
