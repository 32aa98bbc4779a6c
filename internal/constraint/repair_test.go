package constraint

import (
	"testing"

	"repro/internal/learn"
)

// TestRepairFixesStealChain reproduces the failure mode the repair pass
// exists for: an early tag takes another tag's label; a pairwise swap
// is needed because single reassignments pass through a hard frequency
// violation.
func TestRepairFixesStealChain(t *testing.T) {
	src := testSource()
	src.Tags = []string{"beds", "baths"}
	preds := map[string]learn.Prediction{
		// "beds" narrowly prefers BATHS; "baths" strongly prefers BATHS
		// too. The optimum under AtMostOne is beds=BEDS, baths=BATHS.
		"beds":  predOf(map[string]float64{"BATHS": 0.5, "BEDS": 0.45, learn.Other: 0.05}),
		"baths": predOf(map[string]float64{"BATHS": 0.9, "BEDS": 0.05, learn.Other: 0.05}),
	}
	h := NewHandler(AtMostOne("BEDS"), AtMostOne("BATHS"))
	// Start from the worst-case steal: beds took BATHS, baths pushed off
	// to OTHER.
	m := Assignment{"beds": "BATHS", "baths": learn.Other}
	cost := h.Repair(src, preds, m)
	if m["beds"] != "BEDS" || m["baths"] != "BATHS" {
		t.Errorf("repair result = %v, want beds=BEDS baths=BATHS", m)
	}
	direct := h.Alpha * ProbCost(preds, m)
	if cost > direct+1e-9 {
		t.Errorf("repair cost %g > recomputed %g", cost, direct)
	}
}

func TestRepairRespectsHardConstraints(t *testing.T) {
	src := testSource()
	src.Tags = []string{"beds", "baths"}
	preds := map[string]learn.Prediction{
		"beds":  predOf(map[string]float64{"BEDS": 0.9, learn.Other: 0.1}),
		"baths": predOf(map[string]float64{"BEDS": 0.8, "BATHS": 0.1, learn.Other: 0.1}),
	}
	h := NewHandler(AtMostOne("BEDS"))
	res, err := h.Run(src, preds)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, l := range res.Mapping {
		if l == "BEDS" {
			count++
		}
	}
	if count > 1 {
		t.Errorf("repair violated AtMostOne: %v", res.Mapping)
	}
}

// TestEpsilonZeroTreatedAsExact: the zero value of Epsilon must behave
// like exact A*.
func TestEpsilonZeroTreatedAsExact(t *testing.T) {
	src := testSource()
	src.Tags = []string{"beds"}
	preds := map[string]learn.Prediction{
		"beds": predOf(map[string]float64{"BEDS": 0.9, learn.Other: 0.1}),
	}
	h := &Handler{Alpha: 1, TopK: 4, MaxExpansions: 100}
	res, err := h.Run(src, preds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Mapping["beds"] != "BEDS" {
		t.Errorf("eps=0 result = %+v", res)
	}
}

// TestWeightedAStarStillRespectsConstraints: with a large Epsilon the
// search is near-greedy but hard constraints must still hold.
func TestWeightedAStarStillRespectsConstraints(t *testing.T) {
	src := testSource()
	preds := map[string]learn.Prediction{}
	for _, tag := range src.Tags {
		preds[tag] = predOf(map[string]float64{"BEDS": 0.5, "BATHS": 0.3, learn.Other: 0.2})
	}
	h := NewHandler(AtMostOne("BEDS"), AtMostOne("BATHS"))
	h.Epsilon = 10
	res, err := h.Run(src, preds)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, l := range res.Mapping {
		counts[l]++
	}
	if counts["BEDS"] > 1 || counts["BATHS"] > 1 {
		t.Errorf("hard constraints violated: %v", res.Mapping)
	}
}

func TestLeafLabelConstraint(t *testing.T) {
	src := testSource()
	// "agent" is a non-leaf source tag; "beds" is a leaf.
	leaf := LeafLabel("AGENT-NAME")
	if v := leaf.Violations(src, Assignment{"agent": "AGENT-NAME"}, true); v != 1 {
		t.Errorf("non-leaf tag with leaf label = %g, want 1", v)
	}
	if v := leaf.Violations(src, Assignment{"name": "AGENT-NAME"}, true); v != 0 {
		t.Errorf("leaf tag with leaf label = %g, want 0", v)
	}
	nonLeaf := NonLeafLabel("AGENT-INFO")
	if v := nonLeaf.Violations(src, Assignment{"beds": "AGENT-INFO"}, true); v != 1 {
		t.Errorf("leaf tag with compound label = %g, want 1", v)
	}
	if v := nonLeaf.Violations(src, Assignment{"agent": "AGENT-INFO"}, true); v != 0 {
		t.Errorf("compound tag with compound label = %g, want 0", v)
	}
}

func TestIsDataConstraint(t *testing.T) {
	if !IsDataConstraint(Key("X")) {
		t.Error("Key should be a data constraint")
	}
	if !IsDataConstraint(FunctionalDep([]string{"A"}, "B")) {
		t.Error("FunctionalDep should be a data constraint")
	}
	for _, c := range []Constraint{
		AtMostOne("X"), NestedIn("A", "B"), Contiguous("A", "B"),
		Exclusive("A", "B"), LeafLabel("X"), Near("A", "B", 1),
		MustMatch("t", "X"),
	} {
		if IsDataConstraint(c) {
			t.Errorf("%s misclassified as data constraint", c.Name())
		}
	}
}

func TestConstraintLabels(t *testing.T) {
	cases := []struct {
		c       Constraint
		wantNil bool
		wantLen int
	}{
		{AtMostOne("X"), false, 1},
		{NestedIn("A", "B"), false, 2},
		{Contiguous("A", "B"), true, 0},
		{Exclusive("A", "B"), false, 2},
		{Key("X"), false, 1},
		{FunctionalDep([]string{"A", "B"}, "C"), false, 3},
		{LeafLabel("X"), false, 1},
		{Near("A", "B", 1), false, 2},
		{MustMatch("t", "X"), true, 0},
		{AtMostSoft("X", 2, 1), false, 1},
	}
	for _, tc := range cases {
		ls := tc.c.Labels()
		if tc.wantNil && ls != nil {
			t.Errorf("%s Labels = %v, want nil", tc.c.Name(), ls)
		}
		if !tc.wantNil && len(ls) != tc.wantLen {
			t.Errorf("%s Labels = %v, want %d entries", tc.c.Name(), ls, tc.wantLen)
		}
	}
}
