package learn_test

import (
	"go/ast"
	"go/parser"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestPredictionWritesDoNotCompile type-checks, against this package,
// one snippet for each way a caller could once write a prediction it
// was handed: from a learner, a batch, the combined-prediction memo,
// or through a helper, its score row or its label table; and one that
// returns In's all-zero row as a prediction. Every snippet must be a
// type error, because a Prediction has no method or index that writes
// its scores or hands out a slice of them, and a Row is not a
// Prediction. A control snippet that only reads must type-check, so a
// failure is the snippet's and not the harness's. (A write into
// Labels.Names compiles, but into a copy: TestLabelsNamesIsACopy.)
func TestPredictionWritesDoNotCompile(t *testing.T) {
	root, modpath, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(root, modpath)
	loaded := make(map[string]*types.Package)
	for _, path := range []string{"/internal/learn", "/internal/memo"} {
		pkg, err := loader.Load(modpath + path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		loaded[pkg.Path] = pkg.Pkg
	}
	check := func(src string) error {
		file, err := parser.ParseFile(loader.Fset, "snippet.go", src, 0)
		if err != nil {
			t.Fatalf("parsing snippet: %v\n%s", err, src)
		}
		var imp importerFunc = func(path string) (*types.Package, error) {
			if pkg, ok := loaded[path]; ok {
				return pkg, nil
			}
			t.Fatalf("snippet imports %s", path)
			return nil, nil
		}
		_, err = (&types.Config{Importer: imp}).Check("snippet", loader.Fset, []*ast.File{file}, nil)
		return err
	}
	snippet := func(body string) string {
		src := "package snippet\n\nimport \"" + modpath + "/internal/learn\"\n"
		if strings.Contains(body, "memo.") {
			src += "import \"" + modpath + "/internal/memo\"\n"
		}
		return src + "\n" + body + "\n"
	}

	control := snippet(`func f(l learn.Learner, in learn.Instance) float64 {
	p := l.Predict(in)
	_, best := p.Best()
	return best + p.Score("A") + p.Map()["A"] + float64(p.Len()+p.Labels().Len())
}`)
	if err := check(control); err != nil {
		t.Fatalf("reading a prediction does not type-check: %v", err)
	}

	cases := []struct {
		name, body, want string
	}{
		{"Normalize on a Predict result",
			`func f(l learn.Learner, in learn.Instance) { l.Predict(in).Normalize() }`,
			"no field or method Normalize"},
		{"Set on a Predict result",
			`func f(l learn.Learner, in learn.Instance) { l.Predict(in).Set("A", 1) }`,
			"no field or method Set"},
		{"write through Scores",
			`func f(l learn.Learner, in learn.Instance) { l.Predict(in).Scores()[0] = 1 }`,
			"no field or method Scores"},
		{"write through In",
			`func f(l learn.Learner, in learn.Instance, t *learn.Labels) { l.Predict(in).In(t)[0] = 1 }`,
			"cannot index"},
		{"write through the label table's sorted order",
			`func f(l learn.Learner, in learn.Instance) { l.Predict(in).Labels().Sorted()[0] = 1 }`,
			"no field or method Sorted"},
		{"In's all-zero row returned as a prediction",
			`func f(t *learn.Labels) learn.Prediction { return learn.Prediction{}.In(t) }`,
			"cannot use"},
		{"Normalize on a PredictAll element",
			`func f(l learn.Learner, ins []learn.Instance) { learn.PredictAll(l, ins)[0].Normalize() }`,
			"no field or method Normalize"},
		{"Normalize on a combined-memo hit",
			`func f(m *memo.Table[learn.Prediction]) {
	p, _ := m.Get("k")
	p.Normalize()
}`,
			"no field or method Normalize"},
		{"helper normalizes a Predict result",
			`func norm(p learn.Prediction) { p.Normalize() }

func f(l learn.Learner, in learn.Instance) { norm(l.Predict(in)) }`,
			"no field or method Normalize"},
		{"helper normalizes a local copy",
			`func norm(p learn.Prediction) {
	q := p
	q.Normalize()
}

func f(l learn.Learner, in learn.Instance) { norm(l.Predict(in)) }`,
			"no field or method Normalize"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := check(snippet(tc.body))
			if err == nil {
				t.Fatalf("the write type-checks:\n%s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("type error %q, want one saying %q", err, tc.want)
			}
		})
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
