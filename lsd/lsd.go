// Package lsd is the public API of this LSD implementation — the
// schema-matching system of "Reconciling Schemas of Disparate Data
// Sources: A Machine-Learning Approach" (Doan, Domingos, Halevy,
// SIGMOD 2001).
//
// LSD semi-automatically finds 1-1 semantic mappings between the tags
// of XML data sources and a mediated schema. Train a System on a few
// sources whose mappings you specify by hand; the system then proposes
// mappings for new sources, enforcing your domain's integrity
// constraints and incorporating your feedback:
//
//	med := &lsd.Mediated{Schema: lsd.MustParseDTD(mediatedDTD),
//	    Constraints: []lsd.Constraint{lsd.AtMostOne("PRICE")}}
//	sys, err := lsd.Train(med, trainingSources, lsd.DefaultConfig())
//	res, err := sys.Match(ctx, newSource)
//	fmt.Println(res.Mapping) // source tag -> mediated label
package lsd

import (
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/integrate"
	"repro/internal/learn"
	"repro/internal/learners/format"
	"repro/internal/learners/recognizer"
	"repro/internal/learners/stats"
	"repro/internal/transform"
	"repro/internal/xmltree"
)

// Core model types, re-exported from the implementation packages.
type (
	// Mediated is a domain's mediated schema, constraints, and synonyms.
	Mediated = core.Mediated
	// Source is one data source: schema, listings, and (for training
	// sources) the true tag → label mapping.
	Source = core.Source
	// Config selects LSD's learners and components.
	Config = core.Config
	// LearnerSpec names a base learner and supplies its factory.
	LearnerSpec = core.LearnerSpec
	// System is a trained LSD instance.
	System = core.System
	// MatchResult is the outcome of matching one source.
	MatchResult = core.MatchResult
	// Constraint is a domain integrity constraint (§4 of the paper).
	Constraint = constraint.Constraint
	// Assignment is a candidate or final mapping: source tag → label.
	Assignment = constraint.Assignment
	// Schema is a parsed DTD.
	Schema = dtd.Schema
	// Node is an XML element tree.
	Node = xmltree.Node
	// Learner is the interface custom base learners implement.
	Learner = learn.Learner
	// Instance is one XML element as the learners see it.
	Instance = learn.Instance
	// Prediction is a confidence-score distribution over a label
	// table: a dense score vector indexed by label id that names its
	// own labels (Labels, Score, Best, Map).
	Prediction = learn.Prediction
	// Labels is a label table: a model's fixed label set, numbered in
	// training order.
	Labels = learn.Labels
	// LabelHierarchy arranges mediated labels in a taxonomy so that
	// ambiguous tags can be matched with their most specific
	// unambiguous ancestor (the §7 partial-mapping extension).
	LabelHierarchy = core.LabelHierarchy
)

// NewLabelHierarchy builds a label taxonomy from child → parent edges;
// attach it to Mediated.Hierarchy to receive partial mappings for
// ambiguous tags in MatchResult.Partial.
func NewLabelHierarchy(parentOf map[string]string) *LabelHierarchy {
	return core.NewLabelHierarchy(parentOf)
}

// Other is the reserved label for source tags that match nothing.
const Other = learn.Other

// Building predictions in a custom Learner.
var (
	// LabelsOf returns the label table over the labels a learner was
	// trained with. Tables are interned, so every learner of a model
	// gets the model's own table.
	LabelsOf = learn.LabelsOf
	// NewPrediction returns an all-zero prediction over a table, the
	// one constructor a custom Learner builds its predictions with:
	// fill it with Set (or Scores, by label id) and return it
	// normalized.
	NewPrediction = learn.NewPrediction
)

// DefaultConfig returns the complete LSD system of the paper's
// experiments: name matcher, content matcher, Naive Bayes, XML learner,
// stacking meta-learner, averaging prediction converter, and the A*
// constraint handler.
func DefaultConfig() Config { return core.DefaultConfig() }

// Train runs LSD's training phase on sources whose mappings are known.
func Train(med *Mediated, sources []*Source, cfg Config) (*System, error) {
	return core.Train(med, sources, cfg)
}

// SaveModel writes the trained system to path as a single versioned,
// checksummed model artifact under the given model name. Artifacts are
// what cmd/lsdserve serves; a matcher restored from one returns
// bit-identical predictions to the original.
func SaveModel(path, name string, sys *System) error {
	return artifact.Save(path, name, sys)
}

// LoadModel restores a trained system from a model artifact, returning
// the system and the model name recorded at save time. workers sets
// the restored system's worker budget (Config.Workers semantics).
func LoadModel(path string, workers int) (*System, string, error) {
	d, err := artifact.Load(path)
	if err != nil {
		return nil, "", err
	}
	sys, err := d.System(workers)
	if err != nil {
		return nil, "", err
	}
	return sys, d.Name, nil
}

// ParseDTD parses DTD text into a Schema.
func ParseDTD(text string) (*Schema, error) { return dtd.Parse(text) }

// MustParseDTD is ParseDTD, panicking on error; for static schemas.
func MustParseDTD(text string) *Schema { return dtd.MustParse(text) }

// ParseXML parses one XML document.
func ParseXML(r io.Reader) (*Node, error) { return xmltree.Parse(r) }

// ParseListings parses a stream of sibling XML documents (one listing
// after another, as exported data files usually are).
func ParseListings(r io.Reader) ([]*Node, error) { return xmltree.ParseAll(r) }

// Accuracy returns the fraction of matchable source tags that mapping
// labels correctly, per the paper's matching-accuracy metric.
func Accuracy(src *Source, mapping Assignment) float64 {
	return core.Accuracy(src, mapping)
}

// Domain constraints (Table 1 of the paper).
var (
	// AtMostOne: at most one source element matches the label.
	AtMostOne = constraint.AtMostOne
	// ExactlyOne: exactly one source element matches the label.
	ExactlyOne = constraint.ExactlyOne
	// NestedIn: elements matching the second label must be nested in
	// elements matching the first.
	NestedIn = constraint.NestedIn
	// NotNestedIn: the inner label may not appear inside the outer.
	NotNestedIn = constraint.NotNestedIn
	// Contiguous: the two labels map to adjacent sibling tags.
	Contiguous = constraint.Contiguous
	// Exclusive: the two labels never both appear in one source.
	Exclusive = constraint.Exclusive
	// Key: the tag matching the label is a key column.
	Key = constraint.Key
	// FunctionalDep: determinant labels functionally determine the
	// dependent label in the extracted rows.
	FunctionalDep = constraint.FunctionalDep
	// LeafLabel: the label maps only to atomic (leaf) elements.
	LeafLabel = constraint.LeafLabel
	// NonLeafLabel: the label maps only to compound elements.
	NonLeafLabel = constraint.NonLeafLabel
	// AtMostSoft: soft bound on how many tags match a label.
	AtMostSoft = constraint.AtMostSoft
	// Near: soft preference that two labels map to nearby tags.
	Near = constraint.Near
	// MustMatch: user feedback pinning a tag to a label (§4.3).
	MustMatch = constraint.MustMatch
	// MustNotMatch: user feedback forbidding a tag-label pair (§4.3).
	MustNotMatch = constraint.MustNotMatch
)

// NewDictionaryRecognizer builds a recognizer base learner that boosts
// target when an element's value belongs to a known vocabulary — the
// county-name recognizer pattern of §3.3. Register it as an extra base
// learner through Config.BaseLearners.
func NewDictionaryRecognizer(name, target string, entries []string) LearnerSpec {
	return LearnerSpec{Name: name, Factory: func() Learner {
		return recognizer.NewDictionary(name, target, entries)
	}}
}

// NewCountyRecognizer builds the county-name recognizer of §3.3 with
// the embedded US county database.
func NewCountyRecognizer(target string) LearnerSpec {
	return LearnerSpec{Name: "CountyNameRecognizer", Factory: func() Learner {
		return recognizer.NewCountyRecognizer(target)
	}}
}

// NewFormatLearner builds the format learner §7 proposes for
// alphanumeric codes (course codes, phone formats).
func NewFormatLearner() LearnerSpec {
	return LearnerSpec{Name: "FormatLearner", Factory: format.Factory}
}

// NewStatsLearner builds the Semint-style statistics learner that §8
// suggests plugging in as a base learner: it classifies elements by
// value statistics (type class, length, numeric scale).
func NewStatsLearner() LearnerSpec {
	return LearnerSpec{Name: "StatsLearner", Factory: stats.Factory}
}

// Translator rewrites source documents into the mediated schema using
// a learned mapping — the step the mappings exist for (§2).
type Translator = transform.Translator

// NewTranslator builds a Translator from the mediated schema and a
// mapping (typically MatchResult.Mapping, reviewed by the user).
func NewTranslator(mediated *Schema, mapping Assignment) (*Translator, error) {
	return transform.New(mediated, mapping)
}

// Data-integration engine types (the paper's Figure 1 scenario): pose
// mediated-schema queries and answer them from matched sources.
type (
	// Engine answers mediated-schema queries across registered sources.
	Engine = integrate.Engine
	// Query is a conjunctive mediated-schema query.
	Query = integrate.Query
	// Condition restricts one mediated attribute.
	Condition = integrate.Condition
	// QueryResult is one answer tuple.
	QueryResult = integrate.Result
)

// Query operators.
const (
	// OpEq matches equal values.
	OpEq = integrate.Eq
	// OpContains matches substrings.
	OpContains = integrate.Contains
	// OpLt matches numerically smaller values.
	OpLt = integrate.Lt
	// OpGt matches numerically larger values.
	OpGt = integrate.Gt
)

// NewEngine builds a data-integration engine over the mediated schema;
// register sources with Engine.Register(name, listings, mapping).
func NewEngine(mediated *Schema) *Engine { return integrate.NewEngine(mediated) }

// FormatResults renders query results as an aligned text table.
func FormatResults(rs []QueryResult, attrs []string) string {
	return integrate.FormatResults(rs, attrs)
}

// Describe renders a match result as a human-readable report.
func Describe(src *Source, res *MatchResult) string {
	out := fmt.Sprintf("mappings for %s:\n", src.Name)
	for _, tag := range src.Schema.Tags() {
		label := res.Mapping[tag]
		best, score := res.TagPredictions[tag].Best()
		out += fmt.Sprintf("  %-24s => %-24s (converter: %s %.2f)\n", tag, label, best, score)
	}
	return out
}
