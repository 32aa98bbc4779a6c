package stats

import (
	"math"
	"testing"

	"repro/internal/learn"
)

var labels = []string{"PRICE", "BATHS", "DESCRIPTION", "AGENT-PHONE"}

func ex(content, label string) learn.Example {
	return learn.Example{Instance: learn.Instance{Content: content}, Label: label}
}

func trained(t *testing.T) *Learner {
	t.Helper()
	l := New()
	err := l.Train(labels, []learn.Example{
		ex("$250,000", "PRICE"),
		ex("$110,000", "PRICE"),
		ex("$1,175,000", "PRICE"),
		ex("2", "BATHS"),
		ex("3.5", "BATHS"),
		ex("1", "BATHS"),
		ex("Fantastic house with a great yard and a wonderful view", "DESCRIPTION"),
		ex("Beautiful location close to downtown, a must see", "DESCRIPTION"),
		ex("Charming garden, quiet street, remodeled kitchen", "DESCRIPTION"),
		ex("(305) 729 0831", "AGENT-PHONE"),
		ex("(617) 253 1429", "AGENT-PHONE"),
		ex("(206) 523 4719", "AGENT-PHONE"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestScaleSeparatesPriceFromBaths reproduces the paper's motivating
// statistic: "if that value is in the thousands, then the element is
// more likely to be price than the number of bathrooms."
func TestScaleSeparatesPriceFromBaths(t *testing.T) {
	l := trained(t)
	if best, _ := l.Predict(learn.Instance{Content: "$320,000"}).Best(); best != "PRICE" {
		t.Errorf("thousands-scale value Best = %q, want PRICE", best)
	}
	if best, _ := l.Predict(learn.Instance{Content: "2.5"}).Best(); best != "BATHS" {
		t.Errorf("single-digit value Best = %q, want BATHS", best)
	}
}

func TestTextualValue(t *testing.T) {
	l := trained(t)
	p := l.Predict(learn.Instance{Content: "Spacious home near a great park with mature trees"})
	if best, _ := p.Best(); best != "DESCRIPTION" {
		t.Errorf("long text Best = %q, want DESCRIPTION", best)
	}
}

func TestPhoneShape(t *testing.T) {
	l := trained(t)
	if best, _ := l.Predict(learn.Instance{Content: "(415) 273 1234"}).Best(); best != "AGENT-PHONE" {
		t.Errorf("phone Best = %q, want AGENT-PHONE", best)
	}
}

func TestPredictionNormalized(t *testing.T) {
	l := trained(t)
	p := l.Predict(learn.Instance{Content: "42"})
	sum := 0.0
	for _, c := range labels {
		if p.Score(c) < 0 {
			t.Errorf("negative score: %v", p)
		}
		sum += p.Score(c)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %g", sum)
	}
}

func TestUntrained(t *testing.T) {
	l := New()
	if p := l.Predict(learn.Instance{Content: "x"}); p.Len() != 0 {
		t.Errorf("untrained Predict = %v", p.Map())
	}
	if err := l.Train(labels, nil); err != nil {
		t.Fatal(err)
	}
	p := l.Predict(learn.Instance{Content: "x"})
	for _, c := range labels {
		if math.Abs(p.Score(c)-0.25) > 1e-9 {
			t.Errorf("no-example prediction not uniform: %v", p)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if err := New().Train(nil, nil); err == nil {
		t.Error("no labels accepted")
	}
	if err := New().Train(labels, []learn.Example{ex("x", "BAD")}); err == nil {
		t.Error("unknown label accepted")
	}
}

func TestFeatures(t *testing.T) {
	f := features("$250,000")
	if f[5] < 5 || f[5] > 6 { // log10(250001) ≈ 5.4
		t.Errorf("magnitude of $250,000 = %g, want ~5.4", f[5])
	}
	f = features("3")
	if f[6] != 1 {
		t.Errorf("'3' should be purely numeric: %v", f)
	}
	f = features("great house")
	if f[7] != 1 {
		t.Errorf("'great house' should be purely textual: %v", f)
	}
	f = features("")
	if f[0] != 0 {
		t.Errorf("empty length = %g", f[0])
	}
}

func TestNumericMagnitude(t *testing.T) {
	cases := map[string]float64{
		"$250,000":       math.Log10(250001),
		"3":              math.Log10(4),
		"no numbers":     0,
		"1200 sqft":      math.Log10(1201),
		"0.25 acres lot": math.Log10(1.25),
	}
	for in, want := range cases {
		if got := numericMagnitude(in); math.Abs(got-want) > 1e-9 {
			t.Errorf("numericMagnitude(%q) = %g, want %g", in, got, want)
		}
	}
}
