// Package core implements the LSD pipeline of §3: the training phase
// (manually specified mappings → data extraction → per-learner training
// sets → base-learner training → meta-learner training) and the
// matching phase (extract & collect data → match each source-DTD tag →
// apply the constraint handler). score.go scores the tags' columns in
// two passes, labelling sub-elements from the match's own predictions.
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/learn"
	"repro/internal/learners/contentmatcher"
	"repro/internal/learners/naivebayes"
	"repro/internal/learners/namematcher"
	"repro/internal/learners/xmllearner"
	"repro/internal/memo"
	"repro/internal/meta"
	"repro/internal/parallel"
	"repro/internal/xmltree"
)

// Mediated describes a domain's mediated schema: the DTD users query,
// the domain constraints specified alongside it, and optional synonym
// lists for source-tag expansion.
type Mediated struct {
	// Schema is the mediated DTD.
	Schema *dtd.Schema
	// Constraints are the domain constraints of §4.1, specified once
	// when the mediated schema is created.
	Constraints []constraint.Constraint
	// Synonyms maps a word to alternative words, used by the name
	// matcher's tag-name expansion.
	Synonyms map[string][]string
	// Hierarchy optionally arranges the labels in a taxonomy; ambiguous
	// tags are then also reported with their most specific unambiguous
	// ancestor label (the §7 partial-mapping extension).
	Hierarchy *LabelHierarchy
}

// Labels returns the classification label set: every mediated-schema
// tag plus the reserved OTHER label (§2.2).
func (m *Mediated) Labels() []string {
	tags := m.Schema.Tags()
	out := make([]string, 0, len(tags)+1)
	out = append(out, tags...)
	out = append(out, learn.Other)
	return out
}

// Source is one data source: its schema, its extracted listings, and —
// for training sources and evaluation — the true 1-1 mapping from
// source tags to mediated labels (unmatchable tags map to OTHER, and
// tags absent from the map are treated as OTHER).
type Source struct {
	Name     string
	Schema   *dtd.Schema
	Listings []*xmltree.Node
	Mapping  map[string]string
}

// LabelOf returns the true label of a source tag.
func (s *Source) LabelOf(tag string) string {
	if l, ok := s.Mapping[tag]; ok {
		return l
	}
	return learn.Other
}

// MatchableTags returns the source tags whose true label is not OTHER.
func (s *Source) MatchableTags() []string {
	var out []string
	for _, t := range s.Schema.Tags() {
		if s.LabelOf(t) != learn.Other {
			out = append(out, t)
		}
	}
	return out
}

// LearnerSpec names a base learner and supplies its factory.
type LearnerSpec struct {
	Name    string
	Factory learn.Factory
}

// Config selects the learners and components of an LSD instance. The
// zero value is not usable; start from DefaultConfig.
type Config struct {
	// BaseLearners are the non-structural base learners.
	//
	//lint:ignore statecodec learner factories are code, not data; artifacts persist each learner's trained state under its name and restore binds factories by name at load time
	BaseLearners []LearnerSpec
	// UseXMLLearner enables the XML learner of §5.
	UseXMLLearner bool
	// UseConstraintHandler enables the A* constraint handler; when
	// false, tags greedily take their best converter label (§3.2).
	UseConstraintHandler bool
	// Meta configures stacking.
	Meta meta.Config
	// Converter selects the prediction-converter mode.
	Converter meta.ConverterMode
	// MaxListings caps the listings used per source (0 = all); the
	// sensitivity experiments sweep this.
	MaxListings int
	// Handler tunes the A* search; nil uses defaults.
	//
	//lint:ignore statecodec the constraint handler holds domain constraints supplied per deployment, not trained state; artifacts deliberately exclude it (see state.go)
	Handler *constraint.Handler
	// Seed drives the cross-validation shuffles.
	Seed int64
	// Workers bounds the concurrency of training and matching: 0 (or
	// negative) uses one worker per CPU (runtime.GOMAXPROCS), 1 is the
	// serial fallback, n > 1 uses n workers. Every parallel stage
	// merges its results in deterministic task order, so Train and
	// Match produce bit-identical output at every setting.
	//
	//lint:ignore statecodec a process-local concurrency budget; persisting it would pin a saved model to the machine that trained it
	Workers int
}

// DefaultConfig returns the complete LSD system of the experiments:
// name matcher, content matcher, Naive Bayes, the XML learner, stacking
// with 5-fold CV, averaging converter, and the constraint handler.
func DefaultConfig() Config {
	return Config{
		BaseLearners: []LearnerSpec{
			{"NameMatcher", namematcher.Factory},
			{"ContentMatcher", contentmatcher.Factory},
			{"NaiveBayes", naivebayes.Factory},
		},
		UseXMLLearner:        true,
		UseConstraintHandler: true,
		Meta:                 meta.DefaultConfig(),
		Converter:            meta.Average,
		Seed:                 1,
	}
}

// System is a trained LSD instance.
type System struct {
	cfg      Config
	mediated *Mediated
	labels   *learn.Labels
	learners []learn.Learner // trained, aligned with the stacker's learner names
	stacker  *meta.Stacker
	// interimStacker is the interim ensemble: a second stacker over the
	// first interimStacker.Len() learners, the non-XML ones. It labels
	// the sub-elements the XML learner reads (Table 2); nil when the XML
	// learner is disabled or has no base learners to consult.
	interimStacker *meta.Stacker
	// combined memoizes post-stacker predictions and interim labels by
	// instance key, so a value the system has scored before — in an
	// earlier request, another listing, or another tag — skips every
	// learner and the stacker entirely. A pointer, so WithWorkers views
	// share it with the system they view.
	combined *memo.Table[entry]
}

// Train runs the training phase of §3.1 on the given training sources
// and returns a system ready to match new sources.
func Train(med *Mediated, sources []*Source, cfg Config) (*System, error) {
	if med == nil || med.Schema == nil {
		return nil, fmt.Errorf("core: nil mediated schema")
	}
	if len(cfg.BaseLearners) == 0 && !cfg.UseXMLLearner {
		return nil, fmt.Errorf("core: no learners configured")
	}
	// The model's label table: every prediction of the trained system
	// is a score vector over it. Learners are trained with the label
	// list and intern it back to this table with learn.LabelsOf.
	labels := med.Labels()
	table := learn.LabelsOf(labels)
	// Per-stage RNG seeds are derived, not shared: the interim and the
	// final meta-learner each get an independent stream, and meta.Train
	// derives one per learner from there, so every cross-validation
	// task owns its rand state and the fan-out stays deterministic.
	interimSeed := learn.DeriveSeed(cfg.Seed, 0)
	finalSeed := learn.DeriveSeed(cfg.Seed, 1)

	// Steps 2-3: extract data and create training examples. All
	// learners share the instance set; each extracts its own features.
	examples := ExtractExamples(med, sources, cfg.MaxListings)

	sys := &System{cfg: cfg, mediated: med, labels: table, combined: new(memo.Table[entry])}

	// Step 4: train the base learners.
	names := make([]string, 0, len(cfg.BaseLearners)+1)
	factories := make([]learn.Factory, 0, len(cfg.BaseLearners)+1)
	for _, spec := range cfg.BaseLearners {
		names = append(names, spec.Name)
		factories = append(factories, spec.Factory)
	}
	if cfg.UseXMLLearner {
		// The XML learner labels sub-elements with the true mappings at
		// training time and with the rest of LSD at matching time
		// (Table 2): the interim ensemble, the non-XML learners stacked
		// on their own.
		if len(cfg.BaseLearners) > 0 {
			interimStack, err := meta.Train(table, names, factories, examples, cfg.Meta, interimSeed, cfg.Workers)
			if err != nil {
				return nil, fmt.Errorf("core: interim meta-learner: %w", err)
			}
			sys.interimStacker = interimStack
		}
		trainLab := trainLabeler(sources)
		names = append(names, "XMLLearner")
		factories = append(factories, func() learn.Learner { return xmllearner.New(trainLab) })
	}
	var err error
	if sys.learners, err = trainLearners(names, factories, labels, examples, cfg.Workers); err != nil {
		return nil, err
	}

	// The XML learner's cross-validation predicts as Match does, with
	// interim sub-element labels: label every training node once.
	if sys.labelsSubElements() {
		var subs []learn.Instance
		for _, ex := range examples {
			if isSubElement(ex.Instance) {
				subs = append(subs, ex.Instance)
			}
		}
		base, err := parallel.Map(context.Background(), cfg.Workers, sys.interimStacker.Len(),
			func(_ context.Context, j int) ([]learn.Prediction, error) {
				return learn.PredictAll(sys.learners[j], subs), nil
			})
		if err != nil {
			return nil, err
		}
		found := sys.interimLabels(subs, base)
		subLabels := make(map[*xmltree.Node]string, len(subs))
		for i, in := range subs {
			subLabels[in.Node] = found[i]
		}
		for i := range examples {
			examples[i].Instance.SubLabels = subLabels
		}
	}

	// Step 5: train the meta-learner by stacking over all learners.
	stacker, err := meta.Train(table, names, factories, examples, cfg.Meta, finalSeed, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: meta-learner: %w", err)
	}
	sys.stacker = stacker
	return sys, nil
}

// trainLearners trains one instance of each factory on the full
// training set. The instances are independent, so they train
// concurrently.
func trainLearners(names []string, factories []learn.Factory, labels []string, examples []learn.Example, workers int) ([]learn.Learner, error) {
	out := make([]learn.Learner, len(factories))
	err := parallel.ForEach(context.Background(), workers, len(factories), func(_ context.Context, i int) error {
		l := factories[i]()
		if err := l.Train(labels, examples); err != nil {
			return fmt.Errorf("core: training %s: %w", names[i], err)
		}
		out[i] = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// trainLabeler builds the training-phase node labeler for the XML
// learner from the union of the training sources' true mappings.
func trainLabeler(sources []*Source) func(*xmltree.Node) string {
	table := make(map[string]string)
	for _, s := range sources {
		for tag, label := range s.Mapping {
			if _, ok := table[tag]; !ok {
				table[tag] = label
			}
		}
	}
	return func(n *xmltree.Node) string {
		if l, ok := table[n.Tag]; ok {
			return l
		}
		return learn.Other
	}
}

// tagSynonyms expands a tag's words through the mediated schema's
// synonym lists — a pure function of the tag name, which is what
// makes the (tag, path, content) instance key exact for caching.
func tagSynonyms(med *Mediated, tag string) []string {
	var syns []string
	if med != nil {
		for _, w := range splitTag(tag) {
			syns = append(syns, med.Synonyms[w]...)
		}
	}
	return syns
}

// NewInstance builds the learner-facing instance for an element node.
func NewInstance(med *Mediated, n *xmltree.Node, path []string) learn.Instance {
	return learn.Instance{
		TagName:  n.Tag,
		Path:     append([]string(nil), path...),
		Synonyms: tagSynonyms(med, n.Tag),
		Content:  n.Content(),
		Node:     n,
	}
}

func splitTag(tag string) []string {
	// Slice the input rather than building each word rune by rune: the
	// pieces share tag's backing storage and the function allocates only
	// the out slice. Called once per node per learner via NewInstance,
	// so the churn of the byte-wise version was visible in match
	// profiles.
	var out []string
	start := -1
	for i, r := range tag {
		if r == '-' || r == '_' || r == ' ' {
			if start >= 0 {
				out = append(out, tag[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, tag[start:])
	}
	return out
}

// ExtractExamples creates the shared training-example set from the
// sources (§3.1 steps 2-3): every element occurrence in every listing
// becomes one example labelled through the source's 1-1 mapping.
func ExtractExamples(med *Mediated, sources []*Source, maxListings int) []learn.Example {
	var out []learn.Example
	for _, s := range sources {
		listings := s.Listings
		if maxListings > 0 && len(listings) > maxListings {
			listings = listings[:maxListings]
		}
		for _, listing := range listings {
			listing.Walk(func(n *xmltree.Node, path []string) {
				out = append(out, learn.Example{
					Instance: NewInstance(med, n, path),
					Label:    s.LabelOf(n.Tag),
					Group:    s.Name,
				})
			})
		}
	}
	return out
}

// Labels returns a copy of the system's label set in label-id order.
func (s *System) Labels() []string { return s.labels.Names() }

// LearnerNames returns the trained learners' names.
func (s *System) LearnerNames() []string { return s.stacker.LearnerNames() }

// Stacker exposes the fitted meta-learner weights (for reports).
func (s *System) Stacker() *meta.Stacker { return s.stacker }

// MatchResult is the outcome of matching one source.
type MatchResult struct {
	// Mapping is the 1-1 mapping the constraint handler (or greedy
	// assignment) produced: source tag → label.
	Mapping constraint.Assignment
	// TagPredictions are the prediction-converter outputs per tag, each
	// over the system's label table.
	TagPredictions map[string]learn.Prediction
	// Handler is the A* result; nil when the handler is disabled.
	Handler *constraint.Result
	// Partial holds the §7 partial mappings: for tags whose prediction
	// is ambiguous between sibling labels, the most specific
	// unambiguous ancestor in the mediated label hierarchy. Populated
	// only when the mediated schema defines a hierarchy.
	Partial map[string]string
}

// Match runs the matching phase of §3.2 on a target source. feedback
// constraints (§4.3) apply to this source only. ctx cancels the
// column-collection and matching fan-outs: a cancelled request stops
// scheduling new per-listing walks and per-instance predictions and
// returns ctx's error.
func (s *System) Match(ctx context.Context, src *Source, feedback ...constraint.Constraint) (*MatchResult, error) {
	return s.match(ctx, src, s.score, feedback)
}

// scorer scores every tag's batch of instances, one prediction per
// instance, aligned with the batches.
type scorer func(ctx context.Context, batches [][]learn.Instance) ([][]learn.Prediction, error)

// match is Match with the scorer as a parameter: Match passes score,
// and the tests pass the per-instance reference scorer that score must
// agree with bit for bit.
func (s *System) match(ctx context.Context, src *Source, score scorer, feedback []constraint.Constraint) (*MatchResult, error) {
	if src == nil || src.Schema == nil {
		return nil, fmt.Errorf("core: nil source")
	}
	// Step 1: extract & collect data into per-tag columns.
	cols, err := collectColumns(ctx, s.mediated, src, s.cfg.MaxListings, s.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: collecting %s: %w", src.Name, err)
	}

	// Step 2: match each source tag: score the tag's whole column as
	// one batch (score deduplicates repeated values, routes each
	// learner through PredictBatch where implemented and combines with
	// the meta-learner), then convert per column.
	tags := src.Schema.Tags()
	batches := make([][]learn.Instance, len(tags))
	declared := 0
	for ti, tag := range tags {
		if instances := cols[tag]; len(instances) > 0 {
			batches[ti] = instances
			declared++
		} else {
			// A tag with no data instances is matched on its name alone.
			batches[ti] = []learn.Instance{{TagName: tag, Path: src.Schema.PathFromRoot(tag)}}
		}
	}
	if declared < len(cols) {
		// Elements the source DTD does not declare (the XML is not
		// validated against it) are scored too, so that every node gets
		// its interim label; their results stay out of the mapping.
		isDeclared := make(map[string]bool, len(tags))
		for _, tag := range tags {
			isDeclared[tag] = true
		}
		var undeclared []string
		for tag := range cols {
			if !isDeclared[tag] {
				undeclared = append(undeclared, tag)
			}
		}
		sort.Strings(undeclared)
		for _, tag := range undeclared {
			batches = append(batches, cols[tag])
		}
	}
	perTag, err := score(ctx, batches)
	if err != nil {
		return nil, fmt.Errorf("core: matching %s: %w", src.Name, err)
	}
	tagPreds := make(map[string]learn.Prediction, len(tags))
	for ti, tag := range tags {
		tagPreds[tag] = meta.Convert(s.cfg.Converter, s.labels, perTag[ti])
	}

	// Step 3: apply the constraint handler.
	res := &MatchResult{TagPredictions: tagPreds}
	if s.mediated.Hierarchy != nil {
		res.Partial = make(map[string]string)
		for tag, p := range tagPreds {
			if anc, ok := s.mediated.Hierarchy.Suggest(p, AmbiguityRatio); ok {
				res.Partial[tag] = anc
			}
		}
	}
	csrc := BuildConstraintSource(src, cols, s.cfg.MaxListings)
	if !s.cfg.UseConstraintHandler {
		res.Mapping = constraint.GreedyRun(csrc, tagPreds)
		return res, nil
	}
	handler := s.cfg.Handler
	if handler == nil {
		handler = constraint.NewHandler()
	}
	cs := append(append([]constraint.Constraint{}, s.mediated.Constraints...), feedback...)
	h := *handler
	h.Constraints = cs
	hres, err := h.Run(csrc, tagPreds)
	if err != nil {
		return nil, fmt.Errorf("core: constraint handler: %w", err)
	}
	res.Mapping = hres.Mapping
	res.Handler = hres
	return res, nil
}

// CollectColumns extracts, for each source tag, the column of element
// instances with that tag across the source's listings (§3.2 step 1).
// The only error is ctx's, when the caller cancels mid-collection.
func CollectColumns(ctx context.Context, med *Mediated, src *Source, maxListings int) (map[string][]learn.Instance, error) {
	return collectColumns(ctx, med, src, maxListings, 1)
}

// collectColumns is CollectColumns over a worker pool: each listing is
// walked independently and the per-listing columns are merged in
// listing order, so instance order per tag matches the serial walk.
func collectColumns(ctx context.Context, med *Mediated, src *Source, maxListings, workers int) (map[string][]learn.Instance, error) {
	listings := src.Listings
	if maxListings > 0 && len(listings) > maxListings {
		listings = listings[:maxListings]
	}
	perListing, err := parallel.Map(ctx, workers, len(listings),
		func(_ context.Context, i int) (map[string][]learn.Instance, error) {
			m := make(map[string][]learn.Instance)
			listings[i].Walk(func(n *xmltree.Node, path []string) {
				m[n.Tag] = append(m[n.Tag], NewInstance(med, n, path))
			})
			return m, nil
		})
	if err != nil {
		return nil, err
	}
	cols := make(map[string][]learn.Instance)
	for _, m := range perListing {
		for tag, instances := range m {
			cols[tag] = append(cols[tag], instances...)
		}
	}
	return cols, nil
}

// BuildConstraintSource assembles the constraint handler's view of a
// source: its schema, tags, extracted columns, and row tuples.
func BuildConstraintSource(src *Source, cols map[string][]learn.Instance, maxListings int) *constraint.Source {
	columns := make(map[string][]string, len(cols))
	for tag, instances := range cols {
		vals := make([]string, len(instances))
		for i, in := range instances {
			vals[i] = in.Content
		}
		columns[tag] = vals
	}
	listings := src.Listings
	if maxListings > 0 && len(listings) > maxListings {
		listings = listings[:maxListings]
	}
	rows := make([]map[string]string, 0, len(listings))
	for _, listing := range listings {
		row := make(map[string]string)
		listing.Walk(func(n *xmltree.Node, _ []string) {
			if _, ok := row[n.Tag]; !ok {
				row[n.Tag] = n.Content()
			}
		})
		rows = append(rows, row)
	}
	return &constraint.Source{
		Schema:  src.Schema,
		Tags:    src.Schema.Tags(),
		Columns: columns,
		Rows:    rows,
	}
}

// Accuracy computes the matching accuracy of a mapping against the
// source's true mapping: the percentage of matchable source tags
// matched correctly (§6, "Experimental Methodology").
func Accuracy(src *Source, mapping constraint.Assignment) float64 {
	matchable := src.MatchableTags()
	if len(matchable) == 0 {
		return 0
	}
	correct := 0
	for _, tag := range matchable {
		if mapping[tag] == src.LabelOf(tag) {
			correct++
		}
	}
	return float64(correct) / float64(len(matchable))
}

// WrongTags returns the matchable tags the mapping got wrong, sorted.
func WrongTags(src *Source, mapping constraint.Assignment) []string {
	var out []string
	for _, tag := range src.MatchableTags() {
		if mapping[tag] != src.LabelOf(tag) {
			out = append(out, tag)
		}
	}
	sort.Strings(out)
	return out
}
