package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/learn"
)

// predOf builds the prediction Normalized makes of scores over their
// labels, numbered in sorted label order.
func predOf(scores map[string]float64) learn.Prediction {
	labels := make([]string, 0, len(scores))
	for c := range scores {
		labels = append(labels, c)
	}
	sort.Strings(labels)
	row := make([]float64, len(labels))
	for id, c := range labels {
		row[id] = scores[c]
	}
	return learn.Normalized(learn.LabelsOf(labels), row)
}

// creditHierarchy models the §7 example: CREDIT generalizes
// COURSE-CREDIT and SECTION-CREDIT.
func creditHierarchy() *LabelHierarchy {
	return NewLabelHierarchy(map[string]string{
		"COURSE-CREDIT":  "CREDIT",
		"SECTION-CREDIT": "CREDIT",
		"CREDIT":         "COURSE-ATTR",
	})
}

func TestAncestors(t *testing.T) {
	h := creditHierarchy()
	anc := h.Ancestors("COURSE-CREDIT")
	if len(anc) != 2 || anc[0] != "CREDIT" || anc[1] != "COURSE-ATTR" {
		t.Errorf("Ancestors = %v", anc)
	}
	if len(h.Ancestors("COURSE-ATTR")) != 0 {
		t.Error("root has ancestors")
	}
}

func TestAncestorsCycleSafe(t *testing.T) {
	h := NewLabelHierarchy(map[string]string{"A": "B", "B": "A"})
	if got := h.Ancestors("A"); len(got) != 1 || got[0] != "B" {
		t.Errorf("cyclic Ancestors = %v", got)
	}
}

func TestCommonAncestor(t *testing.T) {
	h := creditHierarchy()
	if got := h.CommonAncestor("COURSE-CREDIT", "SECTION-CREDIT"); got != "CREDIT" {
		t.Errorf("CommonAncestor = %q, want CREDIT", got)
	}
	if got := h.CommonAncestor("COURSE-CREDIT", "UNRELATED"); got != "" {
		t.Errorf("unrelated CommonAncestor = %q", got)
	}
}

// TestSuggestAmbiguousCredit reproduces §7's "course-code: CSE142
// section: 2 credits: 3" case: the prediction cannot separate course-
// from section-credits, so LSD suggests the general CREDIT label.
func TestSuggestAmbiguousCredit(t *testing.T) {
	h := creditHierarchy()
	p := predOf(map[string]float64{
		"COURSE-CREDIT":  0.42,
		"SECTION-CREDIT": 0.40,
		"ENROLLMENT":     0.18,
	})
	got, ok := h.Suggest(p, AmbiguityRatio)
	if !ok || got != "CREDIT" {
		t.Errorf("Suggest = %q, %v; want CREDIT, true", got, ok)
	}
}

func TestSuggestUnambiguous(t *testing.T) {
	h := creditHierarchy()
	p := predOf(map[string]float64{
		"COURSE-CREDIT":  0.8,
		"SECTION-CREDIT": 0.1,
		"ENROLLMENT":     0.1,
	})
	if got, ok := h.Suggest(p, AmbiguityRatio); ok {
		t.Errorf("confident prediction suggested %q", got)
	}
}

func TestSuggestNoCommonAncestor(t *testing.T) {
	h := creditHierarchy()
	p := predOf(map[string]float64{
		"COURSE-CREDIT": 0.5,
		"ENROLLMENT":    0.45,
	})
	if got, ok := h.Suggest(p, AmbiguityRatio); ok {
		t.Errorf("unrelated labels suggested %q", got)
	}
}

func TestSuggestNilAndSmall(t *testing.T) {
	var h *LabelHierarchy
	if _, ok := h.Suggest(predOf(map[string]float64{"A": 1, "B": 1}), 0.8); ok {
		t.Error("nil hierarchy suggested")
	}
	h = creditHierarchy()
	if _, ok := h.Suggest(predOf(map[string]float64{"A": 1}), 0.8); ok {
		t.Error("single-label prediction suggested")
	}
}

// TestMatchPopulatesPartial wires the hierarchy through Match.
func TestMatchPopulatesPartial(t *testing.T) {
	med := tinyMediated()
	med.Hierarchy = NewLabelHierarchy(map[string]string{
		"ADDRESS":     "LOCATION-ATTR",
		"DESCRIPTION": "LOCATION-ATTR",
	})
	sys, err := Train(med, tinySources(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Match(context.Background(), greatHomes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial == nil {
		t.Fatal("Partial not populated despite hierarchy")
	}
	// Confident predictions should not produce partial suggestions for
	// the well-separated tags; the map may be empty, which is fine —
	// what matters is that any present entries name hierarchy labels.
	for tag, anc := range res.Partial {
		if anc != "LOCATION-ATTR" {
			t.Errorf("Partial[%s] = %q, not a hierarchy ancestor", tag, anc)
		}
	}
}
