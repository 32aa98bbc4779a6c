package analysis_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/report"
)

// TestDefaultAnalyzerCatalog pins the suite roster: adding, removing,
// or reordering an analyzer must update this list (and DESIGN.md's
// catalog) deliberately, not by accident.
func TestDefaultAnalyzerCatalog(t *testing.T) {
	want := []string{
		"maprangefloat",
		"seedflow",
		"confine",
		"workerpure",
		"statecodec",
		"snapshotonce",
		"boundedread",
		"hotalloc",
		"ctxflow",
		"errflow",
		"poolescape",
		"cowstore",
	}
	analyzers := analysis.DefaultAnalyzers()
	var got []string
	for _, a := range analyzers {
		got = append(got, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc line", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run function", a.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("DefaultAnalyzers catalog:\n got %v\nwant %v", got, want)
	}
}

// repoRoot locates the enclosing module of this test file's package.
func repoRoot(t *testing.T) (root, modpath string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modpath, err = analysis.FindModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	return root, modpath
}

// TestRealTreeCleanAgainstBaseline runs the full suite over this
// repository itself and requires a clean result: zero findings, and a
// //lint:ignore inventory that matches the committed
// lint/suppressions.txt baseline line for line. A new finding means
// fix the code or add a justified suppression; a new suppression means
// regenerate the baseline (see lint/README.md) so the audit trail and
// this test move together.
func TestRealTreeCleanAgainstBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint is slow; skipped with -short")
	}
	root, modpath := repoRoot(t)

	diags, err := analysis.Lint(root, modpath, nil, analysis.DefaultAnalyzers())
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unsuppressed finding: %s", d)
	}

	sups, err := analysis.Suppressions(root, modpath, nil)
	if err != nil {
		t.Fatalf("Suppressions: %v", err)
	}
	rsups := make([]report.Suppression, 0, len(sups))
	for _, s := range sups {
		rsups = append(rsups, report.Suppression{
			File:    s.Position.Filename,
			Line:    s.Position.Line,
			Package: s.Package,
			Check:   s.Check,
			Reason:  s.Reason,
		})
	}
	var buf bytes.Buffer
	if err := report.WriteSuppressionsText(&buf, root, rsups); err != nil {
		t.Fatal(err)
	}
	baselinePath := filepath.Join(root, "lint", "suppressions.txt")
	baseline, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	// The committed baseline is the lsdlint inventory plus any
	// lsdschema directives appended after it; the Go-side render must
	// be a prefix of it and every remaining line must be a DTD
	// directive, not a Go one.
	got, want := buf.String(), string(baseline)
	if !strings.HasPrefix(want, got) {
		t.Fatalf("suppression inventory drifted from %s;\nregenerate it:\n  go run ./cmd/lsdlint -suppressions ./... > lint/suppressions.txt\n  go run ./cmd/lsdschema -suppressions >> lint/suppressions.txt\n\ngot:\n%s\nbaseline:\n%s",
			baselinePath, got, want)
	}
	for _, line := range strings.Split(strings.TrimSuffix(want[len(got):], "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasSuffix(strings.SplitN(line, ":", 2)[0], ".go") {
			t.Errorf("baseline holds a Go suppression the live inventory lacks: %s", line)
		}
	}
}
