// Package format implements the format learner that §7 identifies as
// missing from the original system: "course codes are short
// alpha-numeric strings that consist of department code followed by
// course number. As such, a format learner would presumably match it
// better than any of LSD's current base learners." The learner
// abstracts each value to a character-class signature (runs of letters
// A, digits 9, and literal punctuation) and applies Naive Bayes over
// signature tokens.
package format

import (
	"fmt"
	"math"
	"strings"
	"unicode"

	"repro/internal/learn"
)

// Signature abstracts a string to its format signature: maximal runs
// of letters become "A<n>" buckets, maximal runs of digits become
// "9<n>" buckets, whitespace collapses to "_", and other runes are kept
// literally. Run lengths are bucketed (1, 2, 3, 4+) so that "CSE142"
// and "INFO344" share the signature "A3+93+".
func Signature(s string) string {
	var b strings.Builder
	runLen := 0
	var runKind rune // 'A' letters, '9' digits, 0 none
	flush := func() {
		if runKind == 0 {
			return
		}
		b.WriteRune(runKind)
		switch {
		case runLen == 1:
			b.WriteString("1")
		case runLen == 2:
			b.WriteString("2")
		case runLen == 3:
			b.WriteString("3")
		default:
			b.WriteString("4+")
		}
		runKind, runLen = 0, 0
	}
	prevSpace := false
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			if runKind != 'A' {
				flush()
				runKind = 'A'
			}
			runLen++
			prevSpace = false
		case unicode.IsDigit(r):
			if runKind != '9' {
				flush()
				runKind = '9'
			}
			runLen++
			prevSpace = false
		case unicode.IsSpace(r):
			flush()
			if !prevSpace {
				b.WriteByte('_')
				prevSpace = true
			}
		default:
			flush()
			b.WriteRune(r)
			prevSpace = false
		}
	}
	flush()
	return b.String()
}

// Learner classifies instances by the format signatures of their
// values using per-label signature frequencies with Laplace smoothing.
type Learner struct {
	labels   *learn.Labels
	sigCount map[string]map[string]float64 // label -> signature -> count
	total    map[string]float64            // label -> #values
	numSigs  map[string]bool
}

// New returns an untrained format learner.
func New() *Learner { return &Learner{} }

// Factory is a learn.Factory for the format learner.
func Factory() learn.Learner { return New() }

// Name implements learn.Learner.
func (l *Learner) Name() string { return "FormatLearner" }

// Train tallies signature frequencies per label.
func (l *Learner) Train(labels []string, examples []learn.Example) error {
	if len(labels) == 0 {
		return fmt.Errorf("format: no labels")
	}
	l.labels = learn.LabelsOf(labels)
	l.sigCount = make(map[string]map[string]float64, len(labels))
	l.total = make(map[string]float64, len(labels))
	l.numSigs = make(map[string]bool)
	for _, c := range labels {
		l.sigCount[c] = make(map[string]float64)
	}
	for _, ex := range examples {
		counts, ok := l.sigCount[ex.Label]
		if !ok {
			return fmt.Errorf("format: example labelled %q outside label set", ex.Label)
		}
		sig := Signature(ex.Instance.Content)
		counts[sig]++
		l.total[ex.Label]++
		l.numSigs[sig] = true
	}
	return nil
}

// Predict scores each label by the smoothed likelihood of the
// instance's signature under that label.
func (l *Learner) Predict(in learn.Instance) learn.Prediction {
	if l.labels.Len() == 0 {
		return learn.Prediction{}
	}
	sig := Signature(in.Content)
	v := float64(len(l.numSigs))
	if v == 0 {
		return learn.Uniform(l.labels)
	}
	// Each score slot holds its label's log likelihood until the
	// soft-max below.
	scores := make([]float64, l.labels.Len())
	maxLog := math.Inf(-1)
	for id := range scores {
		c := l.labels.Name(id)
		lp := math.Log((l.sigCount[c][sig] + 1) / (l.total[c] + v))
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
