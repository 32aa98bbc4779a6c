package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestGolden runs each analyzer over its fixture package under
// testdata/src and compares the rendered diagnostics against
// testdata/<name>.golden. Each fixture contains true positives (listed
// in the golden file), true negatives (absent from it), and a
// suppressed case (also absent — proving //lint:ignore works inside a
// fixture). Regenerate goldens with LSDLINT_UPDATE=1 go test.
func TestGolden(t *testing.T) {
	root, modpath, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(root, modpath)
	cases := []struct {
		name     string
		analyzer *analysis.Analyzer
	}{
		{"maprangefloat", analysis.MapRangeFloat},
		{"seedflow", analysis.SeedFlow},
		{"confine", analysis.Confine},
		{"normalizedpred", analysis.NormalizedPred},
		{"workerpure", analysis.WorkerPure},
		{"statecodec", analysis.StateCodec},
		{"snapshotonce", analysis.SnapshotOnce},
		{"boundedread", analysis.BoundedRead},
		{"hotalloc", analysis.HotAlloc},
		{"ctxflow", analysis.CtxFlow},
		{"errflow", analysis.ErrFlow},
		{"sharedread", analysis.SharedRead},
		{"poolescape", analysis.PoolEscape},
		{"cowstore", analysis.CowStore},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := loader.Load(modpath + "/internal/analysis/testdata/src/" + tc.name)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{tc.analyzer})
			var b strings.Builder
			for _, d := range diags {
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
					filepath.Base(d.Position.Filename), d.Position.Line, d.Position.Column,
					d.Check, d.Message)
			}
			got := b.String()
			if got == "" {
				t.Fatalf("fixture produced no diagnostics; every analyzer fixture must contain at least one true positive")
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if os.Getenv("LSDLINT_UPDATE") != "" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (regenerate with LSDLINT_UPDATE=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\ngot:\n%swant:\n%s", golden, got, want)
			}
		})
	}
}
