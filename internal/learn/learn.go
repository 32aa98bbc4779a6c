// Package learn defines the machine-learning substrate of LSD: the
// Learner interface all base learners implement, confidence-score
// predictions (§2.2), training examples built from XML elements,
// d-fold cross-validation (§3.1 step 5a), and the least-squares linear
// regression the meta-learner uses to fit learner weights (§3.1 step
// 5c).
package learn

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/parallel"
	"repro/internal/xmltree"
)

// Other is the reserved label assigned to source tags that match no
// mediated-schema tag (§2.2).
const Other = "OTHER"

// Instance is one XML element presented to the learners: LSD extracts
// for every source element its tag name, the root-to-element tag path,
// any synonym expansion of the name, the enclosed text, and the element
// tree itself (for structural learners).
type Instance struct {
	// TagName is the source-schema tag of the element.
	TagName string
	// Path is the list of tags from the document root to the element,
	// inclusive. The name matcher learns from the expanded name, which
	// includes "all tag names leading to this element from the root"
	// (§3.3).
	Path []string
	// Synonyms are additional names for the tag, when available.
	Synonyms []string
	// Content is the full text enclosed by the element.
	Content string
	// Node is the element tree; nil for purely textual instances.
	Node *xmltree.Node
}

// ExpandedName returns the tag name expanded with its path and
// synonyms, the input the name matcher vectorizes.
func (in Instance) ExpandedName() string {
	// Fast path: most instances have no path or synonyms, and the name
	// matcher calls this on every Predict before its cache lookup.
	if len(in.Path) == 0 && len(in.Synonyms) == 0 {
		return in.TagName
	}
	n := len(in.TagName)
	for _, p := range in.Path {
		n += 1 + len(p)
	}
	for _, syn := range in.Synonyms {
		n += 1 + len(syn)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(in.TagName)
	for _, p := range in.Path {
		b.WriteByte(' ')
		b.WriteString(p)
	}
	for _, syn := range in.Synonyms {
		b.WriteByte(' ')
		b.WriteString(syn)
	}
	return b.String()
}

// Example pairs an instance with its observed label. Group identifies
// the data source the example came from: cross-validation folds by
// group, so that the fitted meta-weights measure how well each learner
// generalizes to *unseen sources* rather than how well it memorizes the
// training ones (§3.1: stacking "uses cross-validation to ensure that
// the weights ... do not overfit the training sources"). Without
// source-level folding the name matcher looks spuriously perfect — all
// listings of a source share its tag names — and stacking would trust
// it far beyond its real cross-source accuracy.
type Example struct {
	Instance Instance
	Label    string
	Group    string
}

// Learner is a base learner (§3.3): it is trained once on labelled
// examples and then predicts a confidence-score distribution for new
// instances. Implementations return predictions over the label set
// given at training time, built with Normalized or Uniform over
// LabelsOf(labels), so they share the model's label table. An
// untrained learner may return the empty Prediction{}.
type Learner interface {
	// Name identifies the learner in reports and lesion studies.
	Name() string
	// Train fits the learner to the examples. labels is the complete
	// label set (mediated-schema tags plus OTHER); examples may not
	// cover every label.
	Train(labels []string, examples []Example) error
	// Predict returns the learner's confidence scores for the instance.
	// Learners may serve the same instance from an internal cache
	// shared between callers, which is safe because a Prediction is
	// immutable.
	Predict(in Instance) Prediction
}

// Factory creates a fresh, untrained learner. The meta-learner's
// cross-validation trains throwaway copies on training folds, so
// learners are constructed through factories rather than reused.
type Factory func() Learner

// DeriveSeed deterministically derives an independent RNG seed from a
// base seed and a task coordinate (learner index, sample index, split
// index, run index, …). Each coordinate is folded in with a SplitMix64
// finalizer, so adjacent coordinates yield statistically unrelated
// streams. Parallel tasks seeded this way never share rand state, and
// the derived sequence is pinned by a regression test so that
// parallelization cannot silently change published experiment numbers.
func DeriveSeed(base int64, idxs ...int64) int64 {
	x := uint64(base) ^ 0x9e3779b97f4a7c15
	for _, idx := range idxs {
		x = mix64(x + mix64(uint64(idx)+0x9e3779b97f4a7c15))
	}
	return int64(x)
}

// mix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// CrossValidate produces CV(L) of §3.1 step 5(a): one prediction per
// example, made by a copy of the learner trained on the other folds.
// When the examples carry two or more distinct Groups (sources), the
// folds are the groups — leave-one-source-out — so learner weights
// measure cross-source generalization. Otherwise the examples are
// shuffled with rng and split into d random parts. The returned slice
// is aligned with the input examples.
//
// The per-fold train/predict rounds are independent and run on a
// bounded worker pool of the given size (parallel.Workers semantics:
// 0 = one per CPU, 1 = serial). Fold assignment happens before the
// fan-out, so the result is identical at every worker count.
func CrossValidate(factory Factory, labels []string, examples []Example, d int, rng *rand.Rand, workers int) ([]Prediction, error) {
	n := len(examples)
	if n == 0 {
		return nil, nil
	}
	if d < 2 {
		return nil, fmt.Errorf("learn: cross-validation needs d >= 2, got %d", d)
	}
	fold := make([]int, n) // example index -> fold
	groupFold := make(map[string]int)
	for _, ex := range examples {
		if ex.Group == "" {
			continue
		}
		if _, ok := groupFold[ex.Group]; !ok {
			groupFold[ex.Group] = len(groupFold)
		}
	}
	if len(groupFold) >= 2 {
		d = len(groupFold)
		for i, ex := range examples {
			fold[i] = groupFold[ex.Group]
		}
		return crossValidateFolds(factory, labels, examples, fold, d, workers)
	}
	if d > n {
		d = n
	}
	perm := rng.Perm(n)
	for i, pi := range perm {
		fold[pi] = i % d
	}
	return crossValidateFolds(factory, labels, examples, fold, d, workers)
}

func crossValidateFolds(factory Factory, labels []string, examples []Example, fold []int, d, workers int) ([]Prediction, error) {
	n := len(examples)
	preds := make([]Prediction, n)
	// Folds are independent: each trains a fresh learner copy and fills
	// a disjoint set of preds slots, so the slice needs no lock.
	err := parallel.ForEach(context.Background(), workers, d, func(_ context.Context, f int) error {
		train := make([]Example, 0, n)
		for i, ex := range examples {
			if fold[i] != f {
				train = append(train, ex)
			}
		}
		l := factory()
		if err := l.Train(labels, train); err != nil {
			return fmt.Errorf("learn: cross-validation fold %d: %w", f, err)
		}
		for i, ex := range examples {
			if fold[i] == f {
				//lint:ignore workerpure fold[i] == f partitions the indices, so each preds slot is written by exactly one task
				preds[i] = l.Predict(ex.Instance)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}
