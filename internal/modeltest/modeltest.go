// Package modeltest builds small trained matchers for tests that need
// a servable model without running the training pipeline: a name
// matcher and a Naive Bayes learner fitted on a fixed real-estate
// snippet, with hand-set stacker weights. Deterministic by
// construction, so artifacts written from it are byte-stable. It also
// renders match results for bit-exact comparison.
package modeltest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/learners/naivebayes"
	"repro/internal/learners/namematcher"
	"repro/internal/meta"
)

// MediatedDTD is the fixture's mediated schema.
const MediatedDTD = "<!ELEMENT LISTING (PRICE, AGENT-NAME)>\n" +
	"<!ELEMENT PRICE (#PCDATA)>\n" +
	"<!ELEMENT AGENT-NAME (#PCDATA)>\n"

// SourceDTD is a source schema to match against the fixture model.
const SourceDTD = "<!ELEMENT house (price, agent)>\n" +
	"<!ELEMENT price (#PCDATA)>\n" +
	"<!ELEMENT agent (#PCDATA)>\n"

// SourceXML is data listings for SourceDTD.
const SourceXML = "<house><price>250000</price><agent>Jane Roe</agent></house>\n" +
	"<house><price>189000</price><agent>Bob Lee</agent></house>\n"

// Labels returns the fixture label set.
func Labels() []string { return []string{"PRICE", "AGENT-NAME", "OTHER"} }

// Examples returns the fixture training examples.
func Examples() []learn.Example {
	mk := func(tag, content, label, group string) learn.Example {
		return learn.Example{
			Instance: learn.Instance{
				TagName: tag,
				Path:    []string{"listing", tag},
				Content: content,
			},
			Label: label,
			Group: group,
		}
	}
	return []learn.Example{
		mk("price", "250000", "PRICE", "s1"),
		mk("price", "189500", "PRICE", "s1"),
		mk("asking", "425000", "PRICE", "s2"),
		mk("agent", "Kate Richardson", "AGENT-NAME", "s1"),
		mk("contact", "James Smith", "AGENT-NAME", "s2"),
		mk("extra", "open house sunday", "OTHER", "s1"),
		mk("comments", "needs a new roof", "OTHER", "s2"),
	}
}

// State assembles the trained system snapshot.
func State(tb testing.TB) *core.SystemState {
	tb.Helper()
	labels := Labels()
	train := func(l learn.Learner) learn.Learner {
		if err := l.Train(labels, Examples()); err != nil {
			tb.Fatalf("Train %s: %v", l.Name(), err)
		}
		return l
	}
	stacker, err := meta.RestoreStacker(&meta.StackerState{
		Labels:       labels,
		LearnerNames: []string{"NameMatcher", "NaiveBayes"},
		Weights: [][]float64{
			{0.5, 0.5},
			{0.25, 0.75},
			{0.5, 0.5},
		},
	})
	if err != nil {
		tb.Fatalf("RestoreStacker: %v", err)
	}
	return &core.SystemState{
		Config: core.Config{
			UseConstraintHandler: true,
			Meta:                 meta.Config{Folds: 5},
			Converter:            meta.Average,
			Seed:                 1,
		},
		MediatedDTD: MediatedDTD,
		ConstraintSpecs: []constraint.Spec{
			constraint.Describe(constraint.AtMostOne("PRICE")),
			constraint.Describe(constraint.AtMostOne("AGENT-NAME")),
		},
		Labels:   learn.LabelsOf(labels),
		Names:    []string{"NameMatcher", "NaiveBayes"},
		Learners: []learn.Learner{train(namematcher.New()), train(naivebayes.New())},
		Stacker:  stacker,
	}
}

// WriteArtifact encodes the fixture under name into dir and returns
// the artifact path (<dir>/<name>.lsdm).
func WriteArtifact(tb testing.TB, dir, name string) string {
	tb.Helper()
	data, err := artifact.Encode(name, State(tb))
	if err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	path := filepath.Join(dir, name+".lsdm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// MatchFingerprint renders the mapping and every per-tag confidence
// score in deterministic order. Scores print with %.17g, which
// round-trips every finite float64, so two results with equal
// fingerprints match bit for bit.
func MatchFingerprint(sys *core.System, res *core.MatchResult) string {
	tags := make([]string, 0, len(res.TagPredictions))
	for tag := range res.TagPredictions {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	var b strings.Builder
	for _, tag := range tags {
		fmt.Fprintf(&b, "%s -> %s\n", tag, res.Mapping[tag])
		for _, label := range sys.Labels() {
			fmt.Fprintf(&b, "  %s=%.17g\n", label, res.TagPredictions[tag].Score(label))
		}
	}
	return b.String()
}
