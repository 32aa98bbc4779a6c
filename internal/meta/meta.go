// Package meta implements LSD's meta-learner and prediction converter
// (§3.1 step 5, §3.2). The meta-learner uses stacking: the base
// learners' cross-validated predictions on the training examples form,
// for each label ci, a regression data set
// ⟨s(ci|x,L1),…,s(ci|x,Lk), l(ci,x)⟩; least-squares regression over it
// yields per-(label, learner) weights W_ci_Lj that indicate how much
// the meta-learner trusts learner Lj on label ci. At matching time the
// combined score of a label is the weighted sum of the base learners'
// scores. The prediction converter then averages the instance-level
// combined predictions of a source tag's column into a single
// prediction for the tag.
package meta

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/learn"
	"repro/internal/parallel"
)

// Stacker holds the per-label learner weights fitted by stacking.
type Stacker struct {
	labels       *learn.Labels
	learnerNames []string
	// weights[id][j] = W_label_Lj for the label with that id.
	weights [][]float64
}

// Config tunes stacking.
type Config struct {
	// Folds is d, the number of cross-validation folds (the paper uses
	// d = 5).
	Folds int
	// UniformWeights disables regression and gives every learner weight
	// 1/k; used by the ablation benches.
	UniformWeights bool
	// RawWeights keeps the raw regression weights. By default each
	// label's weights are normalized to sum to 1 (a convex blend of the
	// learners): regression fits each label's indicator independently,
	// so raw weights put labels on incomparable scales — a label whose
	// learners produce chronically small but well-correlated scores
	// gets amplified weights and outbids better-supported labels at
	// combination time. Normalization keeps the relative trust, which
	// is the quantity the weights are meant to carry.
	RawWeights bool
	// AllowNegativeWeights switches from the default non-negative
	// least squares to unconstrained regression; kept for the ablation
	// benches. Non-negative weights are the stacking practice of Ting &
	// Witten [23], which §3.1 follows: unconstrained regression assigns
	// large negative weights to correlated learners and generalizes
	// poorly to unseen sources.
	AllowNegativeWeights bool
}

// DefaultConfig returns the paper's configuration: 5-fold
// cross-validation with regression weights.
func DefaultConfig() Config { return Config{Folds: 5} }

// Train fits the stacker. factories supply fresh base learners for the
// cross-validation; names must align with factories and with the
// prediction vectors later passed to Combine. examples is the training
// set shared by all learners (each learner extracts its own features
// from the instances). seed drives the cross-validation shuffles: each
// learner's CV gets its own RNG seeded by learn.DeriveSeed(seed, j),
// so the per-learner rounds can run concurrently without sharing rand
// state and produce identical folds at every worker count. workers
// bounds the concurrency of the per-learner (and per-fold)
// cross-validation: 0 or negative = one worker per CPU, 1 = serial.
// The fitted weights are identical at every setting.
func Train(labels *learn.Labels, names []string, factories []learn.Factory,
	examples []learn.Example, cfg Config, seed int64, workers int) (*Stacker, error) {
	if len(names) != len(factories) {
		return nil, fmt.Errorf("meta: %d names but %d factories", len(names), len(factories))
	}
	if len(factories) == 0 {
		return nil, fmt.Errorf("meta: no base learners")
	}
	s := &Stacker{
		labels:       labels,
		learnerNames: append([]string(nil), names...),
		weights:      make([][]float64, labels.Len()),
	}
	k := len(factories)
	if cfg.UniformWeights || len(examples) == 0 {
		for id := range s.weights {
			s.weights[id] = uniformWeights(k)
		}
		return s, nil
	}

	// Step 5(a): apply base learners to training data under
	// cross-validation, producing CV(L) per learner.
	folds := cfg.Folds
	if folds == 0 {
		folds = 5
	}
	cv := make([][]learn.Prediction, k)
	err := parallel.ForEach(context.Background(), workers, k, func(_ context.Context, j int) error {
		rng := rand.New(rand.NewSource(learn.DeriveSeed(seed, int64(j))))
		preds, err := learn.CrossValidate(factories[j], labels.Names(), examples, folds, rng, workers)
		if err != nil {
			return fmt.Errorf("meta: CV for %s: %w", names[j], err)
		}
		cv[j] = preds
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Steps 5(b)-(c): per label, gather ⟨s(ci|x,L1..Lk), l(ci,x)⟩ and
	// regress. cvRows[j][i] is learner j's CV score row for example i.
	cvRows := make([][]learn.Row, k)
	for j := range cv {
		cvRows[j] = make([]learn.Row, len(examples))
		for i, p := range cv[j] {
			cvRows[j][i] = p.In(labels)
		}
	}
	for id, c := range labels.Names() {
		x := make([][]float64, len(examples))
		y := make([]float64, len(examples))
		for i := range examples {
			row := make([]float64, k)
			for j := 0; j < k; j++ {
				row[j] = cvRows[j][i].At(id)
			}
			x[i] = row
			if examples[i].Label == c {
				y[i] = 1
			}
		}
		regress := learn.NonNegativeLeastSquares
		if cfg.AllowNegativeWeights {
			regress = learn.LeastSquares
		}
		w, err := regress(x, y)
		if err != nil {
			// Degenerate label (e.g. never predicted by anyone): fall
			// back to uniform trust rather than failing training.
			w = uniformWeights(k)
		}
		if !cfg.RawWeights {
			normalizeWeights(w, k)
		}
		s.weights[id] = w
	}
	return s, nil
}

// normalizeWeights scales w to sum to 1; an all-zero (or negative-sum)
// vector falls back to uniform.
func normalizeWeights(w []float64, k int) {
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if sum <= 0 {
		copy(w, uniformWeights(k))
		return
	}
	for j := range w {
		w[j] /= sum
	}
}

func uniformWeights(k int) []float64 {
	w := make([]float64, k)
	for j := range w {
		w[j] = 1 / float64(k)
	}
	return w
}

// Labels returns the label table the stacker was trained over.
func (s *Stacker) Labels() *learn.Labels { return s.labels }

// LearnerNames returns a copy of the base-learner names in weight
// order.
func (s *Stacker) LearnerNames() []string { return append([]string(nil), s.learnerNames...) }

// Len returns the number of base learners the stacker combines.
func (s *Stacker) Len() int { return len(s.learnerNames) }

// Weight returns W_label_Lj for the named learner.
func (s *Stacker) Weight(label, learnerName string) float64 {
	for j, n := range s.learnerNames {
		if n == learnerName {
			if id, ok := s.labels.ID(label); ok {
				return s.weights[id][j]
			}
			return 0
		}
	}
	return 0
}

// Combine merges the base learners' predictions for one instance into a
// single confidence distribution (§3.2 step 2): for each label the
// combined score is the weight-scaled sum of the learners' scores,
// clamped at zero and normalized. The predictions must be over the
// stacker's label table (an empty one counts as all zeros); Combine
// panics on another table, as on a wrong prediction count.
func (s *Stacker) Combine(preds []learn.Prediction) learn.Prediction {
	if len(preds) != len(s.learnerNames) {
		panic(fmt.Sprintf("meta: Combine got %d predictions, want %d",
			len(preds), len(s.learnerNames)))
	}
	// One score row per learner; a stack buffer for the usual few.
	var rowBuf [8]learn.Row
	rows := rowBuf[:0]
	if len(preds) > len(rowBuf) {
		rows = make([]learn.Row, 0, len(preds))
	}
	for _, p := range preds {
		rows = append(rows, p.In(s.labels))
	}
	scores := make([]float64, s.labels.Len())
	for id, w := range s.weights {
		score := 0.0
		for j, row := range rows {
			score += w[j] * row.At(id)
		}
		scores[id] = score
	}
	return learn.Normalized(s.labels, scores)
}

// String summarizes the fitted weights, highest-variance labels first.
func (s *Stacker) String() string {
	out := "meta-learner weights:\n"
	for i := 0; i < s.labels.Len(); i++ {
		id := s.labels.SortedID(i)
		out += "  " + s.labels.Name(id) + ":"
		for j, n := range s.learnerNames {
			out += fmt.Sprintf(" %s=%.3f", n, s.weights[id][j])
		}
		out += "\n"
	}
	return out
}
