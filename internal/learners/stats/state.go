package stats

// Serialization support: the trained model is the per-label Gaussian
// sufficient statistics, carried verbatim so a restored learner's
// likelihoods are bit-identical to the in-memory model's.

import (
	"fmt"
	"math"

	"repro/internal/learn"
)

// NumFeatures is the dimensionality of the feature vector, exported so
// artifact encoders can size the per-class statistic rows.
const NumFeatures = numFeatures

// ClassState is the serialized sufficient statistics of one label.
type ClassState struct {
	N          float64
	Sum, SumSq []float64 // length NumFeatures
}

// State is the serializable view of a trained Learner. Classes aligns
// one-to-one with Labels.
type State struct {
	Labels  []string
	Classes []ClassState
	NumDocs float64
}

// State snapshots the learner; nil if untrained.
func (l *Learner) State() *State {
	if l.classes == nil {
		return nil
	}
	st := &State{
		Labels:  l.labels.Names(),
		Classes: make([]ClassState, l.labels.Len()),
		NumDocs: l.numDocs,
	}
	for i, c := range l.labels.Names() {
		cs := l.classes[c]
		st.Classes[i] = ClassState{
			N:     cs.n,
			Sum:   append([]float64(nil), cs.sum[:]...),
			SumSq: append([]float64(nil), cs.sumSq[:]...),
		}
	}
	return st
}

// Restore rebuilds a trained learner from a snapshot.
func Restore(st *State) (*Learner, error) {
	if st == nil {
		return nil, fmt.Errorf("stats: nil state")
	}
	if len(st.Labels) == 0 {
		return nil, fmt.Errorf("stats: state has no labels")
	}
	if len(st.Classes) != len(st.Labels) {
		return nil, fmt.Errorf("stats: %d class records for %d labels", len(st.Classes), len(st.Labels))
	}
	if st.NumDocs < 0 || math.IsNaN(st.NumDocs) || math.IsInf(st.NumDocs, 0) {
		return nil, fmt.Errorf("stats: invalid document count %v", st.NumDocs)
	}
	l := New()
	l.labels = learn.LabelsOf(st.Labels)
	l.classes = make(map[string]*classStats, len(st.Labels))
	l.numDocs = st.NumDocs
	for i, c := range st.Labels {
		if _, dup := l.classes[c]; dup {
			return nil, fmt.Errorf("stats: duplicate label %q", c)
		}
		rec := st.Classes[i]
		if len(rec.Sum) != numFeatures || len(rec.SumSq) != numFeatures {
			return nil, fmt.Errorf("stats: label %q has %d/%d statistics for %d features",
				c, len(rec.Sum), len(rec.SumSq), numFeatures)
		}
		cs := &classStats{n: rec.N}
		copy(cs.sum[:], rec.Sum)
		copy(cs.sumSq[:], rec.SumSq)
		l.classes[c] = cs
	}
	return l, nil
}
