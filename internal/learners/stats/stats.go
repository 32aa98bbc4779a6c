// Package stats implements a Semint-style statistics learner. The
// paper's related-work section (§8) observes that Semint — which
// matches schema elements "using properties such as field
// specifications (e.g., data types and scale) and statistics of data
// content (e.g., maximum, minimum, and average)" — could be plugged
// into LSD as another base learner whose predictions the meta-learner
// combines. This package is that plug-in.
//
// The learner summarizes each element's value as a feature vector
// (type class, character length, token count, numeric magnitude when
// parseable, digit/letter/punctuation fractions) and classifies with a
// per-label Gaussian naive Bayes over the features. It is strong
// exactly where the text learners are weak — short numeric fields
// whose scale is informative (the paper's own example: an average
// value in the thousands suggests price, not number of bathrooms) —
// and abstains softly elsewhere.
package stats

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/learn"
)

// numFeatures is the dimensionality of the feature vector.
const numFeatures = 8

// features maps a raw value to its statistics vector.
func features(value string) [numFeatures]float64 {
	var f [numFeatures]float64
	letters, digits, punct, spaces := 0, 0, 0, 0
	for _, r := range value {
		switch {
		case unicode.IsLetter(r):
			letters++
		case unicode.IsDigit(r):
			digits++
		case unicode.IsSpace(r):
			spaces++
		default:
			punct++
		}
	}
	n := float64(len(value))
	if n == 0 {
		n = 1
	}
	f[0] = float64(len(value))                     // character length
	f[1] = float64(spaces) + 1                     // token count proxy
	f[2] = float64(letters) / n                    // letter fraction
	f[3] = float64(digits) / n                     // digit fraction
	f[4] = float64(punct) / n                      // punctuation fraction
	f[5] = numericMagnitude(value)                 // log10 of numeric value, if any
	f[6] = boolAsFloat(digits > 0 && letters == 0) // purely numeric
	f[7] = boolAsFloat(letters > 0 && digits == 0) // purely textual
	return f
}

func boolAsFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// numericMagnitude extracts the first number in the value and returns
// log10(1+|v|); zero when the value holds no number. Scale is the
// paper's flagship statistic: prices live in the thousands, bath counts
// in single digits.
func numericMagnitude(value string) float64 {
	cleaned := strings.Map(func(r rune) rune {
		if unicode.IsDigit(r) || r == '.' || r == ' ' {
			return r
		}
		if r == ',' {
			return -1 // drop thousands separators
		}
		return ' '
	}, value)
	for _, fieldValue := range strings.Fields(cleaned) {
		if v, err := strconv.ParseFloat(fieldValue, 64); err == nil {
			return math.Log10(1 + math.Abs(v))
		}
	}
	return 0
}

// classStats accumulates per-feature Gaussian statistics for one label.
type classStats struct {
	n          float64
	sum, sumSq [numFeatures]float64
}

func (cs *classStats) add(f [numFeatures]float64) {
	cs.n++
	for i, v := range f {
		cs.sum[i] += v
		cs.sumSq[i] += v * v
	}
}

func (cs *classStats) meanVar(i int) (mean, variance float64) {
	if cs.n == 0 {
		return 0, 1
	}
	mean = cs.sum[i] / cs.n
	variance = cs.sumSq[i]/cs.n - mean*mean
	// Variance floor keeps near-constant features from producing
	// singular likelihoods.
	if variance < 0.05 {
		variance = 0.05
	}
	return mean, variance
}

// Learner is the statistics base learner.
type Learner struct {
	labels  *learn.Labels
	classes map[string]*classStats
	numDocs float64
}

// New returns an untrained statistics learner.
func New() *Learner { return &Learner{} }

// Factory is a learn.Factory for the statistics learner.
func Factory() learn.Learner { return New() }

// Name implements learn.Learner.
func (l *Learner) Name() string { return "StatsLearner" }

// Train accumulates per-label feature statistics.
func (l *Learner) Train(labels []string, examples []learn.Example) error {
	if len(labels) == 0 {
		return fmt.Errorf("stats: no labels")
	}
	l.labels = learn.LabelsOf(labels)
	l.classes = make(map[string]*classStats, len(labels))
	for _, c := range labels {
		l.classes[c] = &classStats{}
	}
	l.numDocs = float64(len(examples))
	for _, ex := range examples {
		cs, ok := l.classes[ex.Label]
		if !ok {
			return fmt.Errorf("stats: example labelled %q outside label set", ex.Label)
		}
		cs.add(features(ex.Instance.Content))
	}
	return nil
}

// Predict scores labels by Gaussian naive-Bayes likelihood of the
// instance's feature vector.
func (l *Learner) Predict(in learn.Instance) learn.Prediction {
	if l.labels.Len() == 0 {
		return learn.Prediction{}
	}
	if l.numDocs == 0 {
		return learn.Uniform(l.labels)
	}
	f := features(in.Content)
	// Each score slot holds its label's log likelihood until the
	// soft-max below.
	scores := make([]float64, l.labels.Len())
	maxLog := math.Inf(-1)
	for id := range scores {
		cs := l.classes[l.labels.Name(id)]
		// Laplace-smoothed class prior.
		lp := math.Log((cs.n + 1) / (l.numDocs + float64(len(scores))))
		for i := 0; i < numFeatures; i++ {
			mean, variance := cs.meanVar(i)
			d := f[i] - mean
			lp += -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
		}
		scores[id] = lp
		if lp > maxLog {
			maxLog = lp
		}
	}
	for id, lp := range scores {
		scores[id] = math.Exp(lp - maxLog)
	}
	return learn.Normalized(l.labels, scores)
}
