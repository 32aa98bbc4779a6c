package naivebayes

// Serialization support: a trained Naive Bayes model is the frozen
// vocabulary plus the precomputed log-probability tables, all immutable
// after Train, so the state round-trips through a model artifact as
// plain data and a restored learner predicts bit-identically — the
// tables are carried verbatim, never recomputed.

import (
	"fmt"
	"math"

	"repro/internal/learn"
	"repro/internal/text"
)

// State is the serializable view of a trained Learner.
type State struct {
	Labels []string
	// Tokens is the vocabulary in id order.
	Tokens []string
	// LogProb[li][id] is the per-label token log-likelihood table; each
	// row must align with Tokens.
	LogProb [][]float64
	// UnseenLog[li] is the out-of-vocabulary log-likelihood per label.
	UnseenLog []float64
	// Prior[li] is the log class prior per label.
	Prior   []float64
	NumDocs float64
}

// State snapshots the learner. It returns nil on an untrained learner.
func (l *Learner) State() *State {
	if l.vocab == nil {
		return nil
	}
	st := &State{
		Labels:    append([]string(nil), l.labels.Names()...),
		Tokens:    l.vocab.Tokens(),
		LogProb:   make([][]float64, len(l.logProb)),
		UnseenLog: append([]float64(nil), l.unseenLog...),
		Prior:     append([]float64(nil), l.prior...),
		NumDocs:   l.numDocs,
	}
	for li, row := range l.logProb {
		st.LogProb[li] = append([]float64(nil), row...)
	}
	return st
}

// Restore rebuilds a trained learner from a snapshot, validating that
// every table aligns with the label set and the vocabulary so a
// corrupted artifact fails loudly instead of indexing out of bounds on
// the first Predict.
func Restore(st *State) (*Learner, error) {
	if st == nil {
		return nil, fmt.Errorf("naivebayes: nil state")
	}
	k := len(st.Labels)
	if k == 0 {
		return nil, fmt.Errorf("naivebayes: state has no labels")
	}
	if len(st.LogProb) != k || len(st.UnseenLog) != k || len(st.Prior) != k {
		return nil, fmt.Errorf("naivebayes: tables sized %d/%d/%d for %d labels",
			len(st.LogProb), len(st.UnseenLog), len(st.Prior), k)
	}
	if st.NumDocs < 0 || math.IsNaN(st.NumDocs) || math.IsInf(st.NumDocs, 0) {
		return nil, fmt.Errorf("naivebayes: invalid document count %v", st.NumDocs)
	}
	vocab, err := text.RestoreVocab(st.Tokens)
	if err != nil {
		return nil, fmt.Errorf("naivebayes: %w", err)
	}
	l := New()
	l.labels = learn.LabelsOf(st.Labels)
	for id, c := range st.Labels {
		if first, _ := l.labels.ID(c); first != id {
			return nil, fmt.Errorf("naivebayes: duplicate label %q", c)
		}
	}
	l.vocab = vocab
	l.logProb = make([][]float64, k)
	for li, row := range st.LogProb {
		if len(row) != vocab.Len() {
			return nil, fmt.Errorf("naivebayes: log-prob row %d has %d entries for %d tokens",
				li, len(row), vocab.Len())
		}
		l.logProb[li] = append([]float64(nil), row...)
	}
	l.unseenLog = append([]float64(nil), st.UnseenLog...)
	l.prior = append([]float64(nil), st.Prior...)
	l.numDocs = st.NumDocs
	return l, nil
}
