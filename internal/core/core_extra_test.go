package core

import (
	"context"
	"testing"

	"repro/internal/constraint"
	"repro/internal/learn"
)

func TestTrainDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	run := func() constraint.Assignment {
		sys, err := Train(tinyMediated(), tinySources(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Match(context.Background(), greatHomes())
		if err != nil {
			t.Fatal(err)
		}
		return res.Mapping
	}
	a, b := run(), run()
	for tag, label := range a {
		if b[tag] != label {
			t.Errorf("non-deterministic mapping for %s: %q vs %q", tag, label, b[tag])
		}
	}
}

func TestSeedChangesCVButStaysCorrect(t *testing.T) {
	// Different seeds shuffle cross-validation folds; on this easy
	// domain the final mapping must stay correct either way.
	for _, seed := range []int64{1, 99} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		sys, err := Train(tinyMediated(), tinySources(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Match(context.Background(), greatHomes())
		if err != nil {
			t.Fatal(err)
		}
		if res.Mapping["extra-info"] != "DESCRIPTION" {
			t.Errorf("seed %d: extra-info = %q", seed, res.Mapping["extra-info"])
		}
	}
}

func TestCustomHandlerConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Handler = &constraint.Handler{
		Alpha:         1,
		TopK:          2,
		MaxExpansions: 1000,
		Epsilon:       1,
	}
	sys, err := Train(tinyMediated(), tinySources(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Match(context.Background(), greatHomes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Handler == nil {
		t.Fatal("custom handler config produced no handler result")
	}
	if res.Handler.Expansions > 1000 {
		t.Errorf("expansions %d exceed configured cap", res.Handler.Expansions)
	}
}

func TestXMLLearnerOnlyConfig(t *testing.T) {
	// The XML learner can run without any other base learner; with no
	// interim ensemble to label them, its sub-elements keep their
	// source tags.
	cfg := Config{
		UseXMLLearner:        true,
		UseConstraintHandler: false,
		Seed:                 1,
	}
	sys, err := Train(tinyMediated(), tinySources(), cfg)
	if err != nil {
		t.Fatalf("XML-only train: %v", err)
	}
	if len(sys.LearnerNames()) != 1 || sys.LearnerNames()[0] != "XMLLearner" {
		t.Errorf("LearnerNames = %v", sys.LearnerNames())
	}
	if _, err := sys.Match(context.Background(), greatHomes()); err != nil {
		t.Fatalf("XML-only match: %v", err)
	}
}

func TestMaxListingsLimitsTraining(t *testing.T) {
	med := tinyMediated()
	sources := tinySources()
	full := ExtractExamples(med, sources, 0)
	capped := ExtractExamples(med, sources, 2)
	if len(capped) >= len(full) {
		t.Errorf("MaxListings did not reduce examples: %d vs %d", len(capped), len(full))
	}
}

func TestMatchableTags(t *testing.T) {
	src := greatHomes()
	tags := src.MatchableTags()
	if len(tags) != 4 {
		t.Errorf("MatchableTags = %v", tags)
	}
	src.Mapping["extra-info"] = learn.Other
	if len(src.MatchableTags()) != 3 {
		t.Errorf("OTHER tag still matchable: %v", src.MatchableTags())
	}
}

func TestLabelOfDefaultsToOther(t *testing.T) {
	src := &Source{Mapping: map[string]string{"a": "X"}}
	if src.LabelOf("a") != "X" {
		t.Error("explicit mapping ignored")
	}
	if src.LabelOf("unknown") != learn.Other {
		t.Error("missing tag should default to OTHER")
	}
}

func TestNewInstanceSynonyms(t *testing.T) {
	med := tinyMediated()
	med.Synonyms = map[string][]string{"tel": {"telephone", "phone"}}
	n := greatHomes().Listings[0].First("work-phone")
	in := NewInstance(med, n, []string{"gh-item", "work-phone"})
	if len(in.Synonyms) != 0 {
		t.Errorf("unexpected synonyms for work-phone: %v", in.Synonyms)
	}
	n2 := &Source{}
	_ = n2
	telNode := greatHomes().Listings[0].Clone()
	telNode.Tag = "contact-tel"
	in2 := NewInstance(med, telNode, []string{"contact-tel"})
	want := 2 // telephone, phone
	if len(in2.Synonyms) != want {
		t.Errorf("Synonyms = %v, want 2 entries", in2.Synonyms)
	}
}

func TestBuildConstraintSourceRows(t *testing.T) {
	src := greatHomes()
	cols, err := CollectColumns(context.Background(), nil, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	csrc := BuildConstraintSource(src, cols, 0)
	if len(csrc.Rows) != len(src.Listings) {
		t.Fatalf("rows = %d, want %d", len(csrc.Rows), len(src.Listings))
	}
	if csrc.Rows[0]["area"] != "Orlando, FL" {
		t.Errorf("row content = %v", csrc.Rows[0])
	}
	if len(csrc.Columns["area"]) != 3 {
		t.Errorf("area column = %v", csrc.Columns["area"])
	}
	if csrc.Schema != src.Schema {
		t.Error("schema not threaded through")
	}
}

func TestWrongTagsSorted(t *testing.T) {
	src := greatHomes()
	m := constraint.Assignment{
		"gh-item": "WRONG", "area": "WRONG",
		"extra-info": "DESCRIPTION", "work-phone": "AGENT-PHONE",
	}
	wrong := WrongTags(src, m)
	if len(wrong) != 2 || wrong[0] != "area" || wrong[1] != "gh-item" {
		t.Errorf("WrongTags = %v", wrong)
	}
}
