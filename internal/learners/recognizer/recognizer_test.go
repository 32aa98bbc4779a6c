package recognizer

import (
	"math"
	"testing"

	"repro/internal/learn"
)

var labels = []string{"ADDRESS", "COUNTY", "DESCRIPTION"}

func ex(content, label string) learn.Example {
	return learn.Example{Instance: learn.Instance{Content: content}, Label: label}
}

func TestCountyRecognizerHit(t *testing.T) {
	r := NewCountyRecognizer("COUNTY")
	if err := r.Train(labels, []learn.Example{
		ex("King", "COUNTY"),
		ex("Pierce", "COUNTY"),
		ex("Seattle, WA", "ADDRESS"),
	}); err != nil {
		t.Fatal(err)
	}
	p := r.Predict(learn.Instance{Content: "Snohomish"})
	if best, _ := p.Best(); best != "COUNTY" {
		t.Errorf("Best = %q, want COUNTY", best)
	}
	if p.Score("COUNTY") <= p.Score("ADDRESS") {
		t.Errorf("COUNTY score %g should exceed ADDRESS %g", p.Score("COUNTY"), p.Score("ADDRESS"))
	}
}

func TestCountyRecognizerAbstains(t *testing.T) {
	r := NewCountyRecognizer("COUNTY")
	if err := r.Train(labels, nil); err != nil {
		t.Fatal(err)
	}
	p := r.Predict(learn.Instance{Content: "not a county at all"})
	for _, c := range labels {
		if math.Abs(p.Score(c)-1.0/3) > 1e-9 {
			t.Errorf("non-county prediction not uniform: %v", p)
		}
	}
}

func TestCaseAndPunctuationInsensitive(t *testing.T) {
	r := NewCountyRecognizer("COUNTY")
	if err := r.Train(labels, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"king", "KING", "King ", "walla-walla", "Walla Walla"} {
		if !r.Contains(v) {
			t.Errorf("Contains(%q) = false", v)
		}
	}
	if r.Contains("Kingdom") {
		t.Error("Contains(Kingdom) = true")
	}
}

func TestHitRateCalibration(t *testing.T) {
	// Half the true COUNTY values are in the dictionary: the calibrated
	// confidence must drop accordingly, but the boosted label still wins
	// on recognized values.
	r := NewDictionary("d", "COUNTY", []string{"King"})
	if err := r.Train(labels, []learn.Example{
		ex("King", "COUNTY"),
		ex("Utsira", "COUNTY"), // not in dictionary
	}); err != nil {
		t.Fatal(err)
	}
	p := r.Predict(learn.Instance{Content: "King"})
	if best, _ := p.Best(); best != "COUNTY" {
		t.Errorf("Best = %q, want COUNTY", best)
	}
	if p.Score("COUNTY") > 0.9 {
		t.Errorf("hit rate 0.5 should temper confidence, got %g", p.Score("COUNTY"))
	}
}

func TestTrainNoLabels(t *testing.T) {
	r := NewCountyRecognizer("COUNTY")
	if err := r.Train(nil, nil); err == nil {
		t.Error("Train with no labels should error")
	}
}

func TestUSCountiesNonTrivial(t *testing.T) {
	cs := USCounties()
	if len(cs) < 100 {
		t.Errorf("county database has %d entries, want >= 100", len(cs))
	}
	seenKing := false
	for _, c := range cs {
		if c == "King" {
			seenKing = true
		}
	}
	if !seenKing {
		t.Error("county database missing King county")
	}
}

func TestTrainRejectsTargetOutsideLabels(t *testing.T) {
	r := NewDictionary("d", "PRICE", []string{"King"})
	if err := r.Train(labels, nil); err == nil {
		t.Error("Train accepted a target outside the label set")
	}
}
