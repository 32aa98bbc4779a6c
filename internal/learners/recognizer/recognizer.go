// Package recognizer implements dictionary recognizers: narrow-expertise
// modules that verify whether an element's values belong to a known
// vocabulary, as the county-name recognizer of §3.3 does with a county
// database extracted from the Web. Recognizers illustrate how modules
// "with a narrow and specific area of expertise can be incorporated"
// into LSD: they are ordinary base learners whose predictions the
// meta-learner weights like any other.
package recognizer

import (
	"fmt"
	"strings"

	"repro/internal/learn"
	"repro/internal/text"
)

// Dictionary is a recognizer backed by a fixed set of known values: if
// an instance's content is in the dictionary, the recognizer boosts its
// target label; otherwise it abstains (uniform prediction).
type Dictionary struct {
	name    string
	target  string
	entries map[string]bool
	labels  *learn.Labels
	// hitRate is estimated during training: the fraction of true target
	// instances the dictionary recognizes, used to scale confidence.
	hitRate float64
}

// NewDictionary builds a recognizer that maps recognized values to the
// target label. Entries are normalized (lower-cased, token-joined) for
// robust lookup.
func NewDictionary(name, target string, entries []string) *Dictionary {
	d := &Dictionary{
		name:    name,
		target:  target,
		entries: make(map[string]bool, len(entries)),
		hitRate: 0.9,
	}
	for _, e := range entries {
		d.entries[normalize(e)] = true
	}
	return d
}

// NewCountyRecognizer returns the county-name recognizer of §3.3,
// backed by the embedded US county database.
func NewCountyRecognizer(target string) *Dictionary {
	return NewDictionary("CountyNameRecognizer", target, USCounties())
}

func normalize(s string) string {
	return strings.Join(text.Tokenize(s), " ")
}

// Name implements learn.Learner.
func (d *Dictionary) Name() string { return d.name }

// Contains reports whether value is in the dictionary.
func (d *Dictionary) Contains(value string) bool {
	return d.entries[normalize(value)]
}

// Train records the label set and calibrates the recognizer's hit rate
// on the true target instances. The target must be one of the labels.
func (d *Dictionary) Train(labels []string, examples []learn.Example) error {
	if len(labels) == 0 {
		return fmt.Errorf("recognizer: no labels")
	}
	d.labels = learn.LabelsOf(labels)
	if _, ok := d.labels.ID(d.target); !ok {
		return fmt.Errorf("recognizer: target %q outside label set", d.target)
	}
	hits, total := 0, 0
	for _, ex := range examples {
		if ex.Label != d.target {
			continue
		}
		total++
		if d.Contains(ex.Instance.Content) {
			hits++
		}
	}
	if total > 0 {
		d.hitRate = float64(hits) / float64(total)
	}
	return nil
}

// Predict boosts the target label when the content is recognized and
// abstains (uniform) otherwise. The boost is proportional to the
// calibrated hit rate so a dictionary that rarely fires on true
// instances is not over-trusted.
func (d *Dictionary) Predict(in learn.Instance) learn.Prediction {
	if d.labels.Len() == 0 {
		return learn.Prediction{}
	}
	if !d.Contains(in.Content) {
		return learn.Uniform(d.labels)
	}
	scores := make([]float64, d.labels.Len())
	base := (1 - d.hitRate) / float64(len(scores))
	for id := range scores {
		scores[id] = base
	}
	// Train and Restore refuse a target outside the labels.
	target, _ := d.labels.ID(d.target)
	scores[target] += d.hitRate
	return learn.Normalized(d.labels, scores)
}
