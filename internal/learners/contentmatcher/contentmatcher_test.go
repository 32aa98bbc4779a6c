package contentmatcher

import (
	"testing"

	"repro/internal/learn"
)

func ex(content, label string) learn.Example {
	return learn.Example{Instance: learn.Instance{Content: content}, Label: label}
}

func TestContentMatcherEndToEnd(t *testing.T) {
	l := New()
	if l.Name() != "ContentMatcher" {
		t.Errorf("Name = %q", l.Name())
	}
	labels := []string{"DESCRIPTION", "HOUSE-STYLE", learn.Other}
	err := l.Train(labels, []learn.Example{
		ex("Fantastic house with a great yard and wonderful views", "DESCRIPTION"),
		ex("Beautiful location close to downtown, a must see", "DESCRIPTION"),
		ex("Victorian", "HOUSE-STYLE"),
		ex("Craftsman", "HOUSE-STYLE"),
		ex("Colonial", "HOUSE-STYLE"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Long textual values: the matcher's §3.3 strength.
	if best, _ := l.Predict(learn.Instance{Content: "Great house, fantastic view of downtown"}).Best(); best != "DESCRIPTION" {
		t.Errorf("description Best = %q", best)
	}
	// Distinct descriptive vocabulary: also its strength.
	if best, _ := l.Predict(learn.Instance{Content: "Victorian"}).Best(); best != "HOUSE-STYLE" {
		t.Errorf("style Best = %q", best)
	}
	// Below the similarity floor it abstains rather than guessing: a
	// value sharing nothing scores uniformly.
	p := l.Predict(learn.Instance{Content: "zzz qqq"})
	if p.Score("DESCRIPTION") != p.Score("HOUSE-STYLE") {
		t.Errorf("no-overlap prediction not uniform: %v", p)
	}
}

func TestFactory(t *testing.T) {
	if Factory() == nil {
		t.Fatal("Factory returned nil")
	}
}
