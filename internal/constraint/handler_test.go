package constraint

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/learn"
)

// predOf builds a prediction over the labels of scores, numbered in
// sorted label order, holding the scores as given.
func predOf(scores map[string]float64) learn.Prediction {
	labels := make([]string, 0, len(scores))
	for c := range scores {
		labels = append(labels, c)
	}
	sort.Strings(labels)
	p := learn.NewPrediction(learn.LabelsOf(labels))
	for c, s := range scores {
		p.Set(c, s)
	}
	return p
}

func TestGreedyRun(t *testing.T) {
	src := testSource()
	p := map[string]learn.Prediction{
		"beds":  predOf(map[string]float64{"BEDS": 0.9, "BATHS": 0.1}),
		"baths": predOf(map[string]float64{"BEDS": 0.3, "BATHS": 0.7}),
	}
	m := GreedyRun(src, p)
	if m["beds"] != "BEDS" || m["baths"] != "BATHS" {
		t.Errorf("GreedyRun = %v", m)
	}
	// Tags with no prediction fall back to OTHER.
	if m["phone"] != learn.Other {
		t.Errorf("no-prediction tag = %q, want OTHER", m["phone"])
	}
}

func TestAStarFollowsScoresWithoutConstraints(t *testing.T) {
	src := testSource()
	p := map[string]learn.Prediction{}
	want := map[string]string{
		"listing": "HOUSE", "house-id": "HOUSE-ID", "beds": "BEDS",
		"baths": "BATHS", "agent": "AGENT-INFO", "name": "AGENT-NAME",
		"phone": "AGENT-PHONE",
	}
	labels := []string{"HOUSE", "HOUSE-ID", "BEDS", "BATHS", "AGENT-INFO", "AGENT-NAME", "AGENT-PHONE", learn.Other}
	for tag, label := range want {
		scores := map[string]float64{}
		for _, l := range labels {
			scores[l] = 0.01
		}
		scores[label] = 1
		p[tag] = predOf(scores).Normalize()
	}
	h := NewHandler()
	res, err := h.Run(src, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Error("search did not complete")
	}
	for tag, label := range want {
		if res.Mapping[tag] != label {
			t.Errorf("mapping[%s] = %q, want %q", tag, res.Mapping[tag], label)
		}
	}
}

// TestConstraintFixesWrongPrediction reproduces the §1 example: the
// learners prefer HOUSE-ID for num-bedrooms, but the key constraint
// rules it out because the column contains duplicates.
func TestConstraintFixesWrongPrediction(t *testing.T) {
	src := testSource()
	p := map[string]learn.Prediction{
		// beds narrowly prefers HOUSE-ID; BEDS is the runner-up.
		"beds": predOf(map[string]float64{"HOUSE-ID": 0.5, "BEDS": 0.4, learn.Other: 0.1}),
		// house-id narrowly prefers OTHER.
		"house-id": predOf(map[string]float64{"HOUSE-ID": 0.45, learn.Other: 0.55, "BEDS": 0.0}),
	}
	h := NewHandler(Key("HOUSE-ID"))
	res, err := h.Run(src, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping["beds"] == "HOUSE-ID" {
		t.Errorf("key constraint failed to block beds=HOUSE-ID: %v", res.Mapping)
	}
	if res.Mapping["beds"] != "BEDS" {
		t.Errorf("beds = %q, want BEDS", res.Mapping["beds"])
	}
}

func TestFrequencyForcesUniqueAssignment(t *testing.T) {
	src := testSource()
	// Both beds and baths prefer BEDS, but at most one may take it.
	p := map[string]learn.Prediction{
		"beds":  predOf(map[string]float64{"BEDS": 0.6, "BATHS": 0.39, learn.Other: 0.01}),
		"baths": predOf(map[string]float64{"BEDS": 0.55, "BATHS": 0.44, learn.Other: 0.01}),
	}
	h := NewHandler(AtMostOne("BEDS"))
	res, err := h.Run(src, p)
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
		t.Errorf("AtMostOne violated: %v", res.Mapping)
	}
	// The cheapest repair flips baths (the weaker preference).
	if res.Mapping["beds"] != "BEDS" || res.Mapping["baths"] != "BATHS" {
		t.Errorf("mapping = %v, want beds=BEDS baths=BATHS", res.Mapping)
	}
}

func TestFeedbackConstraint(t *testing.T) {
	src := testSource()
	p := map[string]learn.Prediction{
		"beds": predOf(map[string]float64{"BATHS": 0.9, "BEDS": 0.1}),
	}
	h := NewHandler(MustMatch("beds", "BEDS"))
	res, err := h.Run(src, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping["beds"] != "BEDS" {
		t.Errorf("feedback ignored: %v", res.Mapping)
	}
	h = NewHandler(MustNotMatch("beds", "BATHS"))
	res, err = h.Run(src, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping["beds"] == "BATHS" {
		t.Errorf("negative feedback ignored: %v", res.Mapping)
	}
}

func TestSoftConstraintBreaksTies(t *testing.T) {
	src := testSource()
	p := map[string]learn.Prediction{
		"name":  predOf(map[string]float64{"AGENT-NAME": 1.0}),
		"phone": predOf(map[string]float64{"AGENT-PHONE": 0.5, learn.Other: 0.5}),
		"baths": predOf(map[string]float64{"AGENT-PHONE": 0.5, learn.Other: 0.5}),
	}
	// Proximity prefers phone (adjacent to name) over baths for
	// AGENT-PHONE; frequency keeps it to one.
	h := NewHandler(AtMostOne("AGENT-PHONE"), Near("AGENT-NAME", "AGENT-PHONE", 2))
	res, err := h.Run(src, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping["phone"] != "AGENT-PHONE" {
		t.Errorf("proximity tie-break failed: %v", res.Mapping)
	}
	if res.Mapping["baths"] == "AGENT-PHONE" {
		t.Errorf("both tags took AGENT-PHONE: %v", res.Mapping)
	}
}

func TestInfeasibleFallsBackToGreedy(t *testing.T) {
	src := testSource()
	p := map[string]learn.Prediction{
		"beds": predOf(map[string]float64{"BEDS": 1.0}),
	}
	// Contradictory feedback: no complete assignment satisfies both.
	h := NewHandler(MustMatch("beds", "BEDS"), MustNotMatch("beds", "BEDS"))
	res, err := h.Run(src, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("contradictory constraints reported complete")
	}
	if len(res.Mapping) != len(src.Tags) {
		t.Errorf("fallback mapping incomplete: %v", res.Mapping)
	}
}

func TestEmptySource(t *testing.T) {
	h := NewHandler()
	res, err := h.Run(&Source{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Mapping) != 0 {
		t.Errorf("empty source result = %+v", res)
	}
}

func TestStructureScore(t *testing.T) {
	src := testSource()
	if s := StructureScore(src, "listing"); s != 6 {
		t.Errorf("StructureScore(listing) = %d, want 6", s)
	}
	if s := StructureScore(src, "agent"); s != 2 {
		t.Errorf("StructureScore(agent) = %d, want 2", s)
	}
	if s := StructureScore(src, "beds"); s != 0 {
		t.Errorf("StructureScore(beds) = %d, want 0", s)
	}
}

func TestTagOrderStructureFirst(t *testing.T) {
	src := testSource()
	h := NewHandler()
	order := h.tagOrder(src)
	if order[0] != "listing" || order[1] != "agent" {
		t.Errorf("tagOrder = %v, want listing, agent first", order)
	}
}

func TestAStarOptimalMatchesExhaustive(t *testing.T) {
	// Small instance: verify A* returns the global optimum by brute
	// force over all label assignments.
	src := testSource()
	src.Tags = []string{"beds", "baths", "name"}
	labels := []string{"BEDS", "BATHS", learn.Other}
	p := map[string]learn.Prediction{
		"beds":  predOf(map[string]float64{"BEDS": 0.5, "BATHS": 0.3, learn.Other: 0.2}),
		"baths": predOf(map[string]float64{"BEDS": 0.45, "BATHS": 0.35, learn.Other: 0.2}),
		"name":  predOf(map[string]float64{"BEDS": 0.1, "BATHS": 0.2, learn.Other: 0.7}),
	}
	cons := []Constraint{AtMostOne("BEDS"), AtMostOne("BATHS")}
	h := NewHandler(cons...)
	res, err := h.Run(src, p)
	if err != nil {
		t.Fatal(err)
	}

	bestCost := math.Inf(1)
	var bestM Assignment
	var enumerate func(i int, m Assignment)
	enumerate = func(i int, m Assignment) {
		if i == len(src.Tags) {
			c := Cost(cons, src, m, true)
			if math.IsInf(c, 1) {
				return
			}
			total := ProbCost(p, m) + c
			if total < bestCost {
				bestCost = total
				bestM = m.Clone()
			}
			return
		}
		for _, l := range labels {
			m[src.Tags[i]] = l
			enumerate(i+1, m)
		}
		delete(m, src.Tags[i])
	}
	enumerate(0, Assignment{})

	if math.Abs(res.Cost-bestCost) > 1e-9 {
		t.Errorf("A* cost %g != exhaustive optimum %g (%v vs %v)",
			res.Cost, bestCost, res.Mapping, bestM)
	}
}

// TestRunRefusesEmptyLabel: only map semantics give the empty label a
// meaning (every unassigned tag "matches" it), so Run refuses a
// constraint that names it, built-in or not, even on an empty source.
func TestRunRefusesEmptyLabel(t *testing.T) {
	src := testSource()
	preds := map[string]learn.Prediction{"beds": predOf(map[string]float64{"BEDS": 1})}
	for _, c := range []Constraint{
		Contiguous("BEDS", ""), AtMostOne(""), MustMatch("beds", ""),
		AtMostSoft("", 1, 1), opaqueLabels{""},
	} {
		if _, err := NewHandler(c).Run(src, preds); err == nil || !strings.Contains(err.Error(), "empty label") {
			t.Errorf("Run with %s: err = %v, want an empty-label refusal", c.Name(), err)
		}
		if _, err := NewHandler(c).Run(&Source{}, nil); err == nil {
			t.Errorf("Run on an empty source with %s: no refusal", c.Name())
		}
	}
}

// TestRunRefusesRepeatedTag: a source lists each tag once.
func TestRunRefusesRepeatedTag(t *testing.T) {
	src := testSource()
	src.Tags = append(src.Tags, "beds")
	if _, err := NewHandler().Run(src, nil); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("Run err = %v, want a repeated-tag refusal", err)
	}
}

// opaqueLabels is a user constraint that only names labels.
type opaqueLabels []string

func (o opaqueLabels) Name() string                               { return "names " + strings.Join(o, ",") }
func (opaqueLabels) Hard() bool                                   { return false }
func (opaqueLabels) Weight() float64                              { return 1 }
func (opaqueLabels) Violations(*Source, Assignment, bool) float64 { return 0 }
func (o opaqueLabels) Labels() []string                           { return o }
