package format

// Serialization support: the trained model is the per-label signature
// frequency tables, carried verbatim so a restored learner's smoothed
// likelihoods are bit-identical to the in-memory model's.

import (
	"fmt"
	"sort"

	"repro/internal/learn"
)

// LabelState is the serialized signature table of one label. Sigs and
// Counts align; Sigs is sorted so encoding is deterministic.
type LabelState struct {
	Sigs   []string
	Counts []float64
	Total  float64
}

// State is the serializable view of a trained Learner. PerLabel aligns
// one-to-one with Labels; Sigs is the distinct-signature set (sorted).
type State struct {
	Labels   []string
	PerLabel []LabelState
	Sigs     []string
}

// State snapshots the learner; nil if untrained.
func (l *Learner) State() *State {
	if l.sigCount == nil {
		return nil
	}
	st := &State{
		Labels:   append([]string(nil), l.labels.Names()...),
		PerLabel: make([]LabelState, l.labels.Len()),
		Sigs:     make([]string, 0, len(l.numSigs)),
	}
	for sig := range l.numSigs {
		st.Sigs = append(st.Sigs, sig)
	}
	sort.Strings(st.Sigs)
	for i, c := range l.labels.Names() {
		counts := l.sigCount[c]
		ls := LabelState{Total: l.total[c], Sigs: make([]string, 0, len(counts))}
		for sig := range counts {
			ls.Sigs = append(ls.Sigs, sig)
		}
		sort.Strings(ls.Sigs)
		ls.Counts = make([]float64, len(ls.Sigs))
		for j, sig := range ls.Sigs {
			ls.Counts[j] = counts[sig]
		}
		st.PerLabel[i] = ls
	}
	return st
}

// Restore rebuilds a trained learner from a snapshot.
func Restore(st *State) (*Learner, error) {
	if st == nil {
		return nil, fmt.Errorf("format: nil state")
	}
	if len(st.Labels) == 0 {
		return nil, fmt.Errorf("format: state has no labels")
	}
	if len(st.PerLabel) != len(st.Labels) {
		return nil, fmt.Errorf("format: %d label tables for %d labels", len(st.PerLabel), len(st.Labels))
	}
	l := New()
	l.labels = learn.LabelsOf(st.Labels)
	l.sigCount = make(map[string]map[string]float64, len(st.Labels))
	l.total = make(map[string]float64, len(st.Labels))
	l.numSigs = make(map[string]bool, len(st.Sigs))
	for _, sig := range st.Sigs {
		l.numSigs[sig] = true
	}
	for i, c := range st.Labels {
		if _, dup := l.sigCount[c]; dup {
			return nil, fmt.Errorf("format: duplicate label %q", c)
		}
		ls := st.PerLabel[i]
		if len(ls.Counts) != len(ls.Sigs) {
			return nil, fmt.Errorf("format: label %q has %d counts for %d signatures", c, len(ls.Counts), len(ls.Sigs))
		}
		counts := make(map[string]float64, len(ls.Sigs))
		for j, sig := range ls.Sigs {
			counts[sig] = ls.Counts[j]
		}
		l.sigCount[c] = counts
		l.total[c] = ls.Total
	}
	return l, nil
}
