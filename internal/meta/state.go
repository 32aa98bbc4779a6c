package meta

// Serialization support: a fitted Stacker is a pure weight table,
// immutable after Train, carried verbatim through model artifacts so a
// restored stacker combines predictions bit-identically.

import (
	"fmt"

	"repro/internal/learn"
)

// StackerState is the serializable view of a fitted Stacker. Weights
// aligns row-for-row with Labels; each row aligns with LearnerNames.
type StackerState struct {
	Labels       []string
	LearnerNames []string
	Weights      [][]float64
}

// State snapshots the stacker.
func (s *Stacker) State() *StackerState {
	st := &StackerState{
		Labels:       s.labels.Names(),
		LearnerNames: append([]string(nil), s.learnerNames...),
		Weights:      make([][]float64, len(s.weights)),
	}
	for id, w := range s.weights {
		st.Weights[id] = append([]float64(nil), w...)
	}
	return st
}

// RestoreStacker rebuilds a fitted stacker from a snapshot, validating
// that the weight table is rectangular and aligned with the label and
// learner sets.
func RestoreStacker(st *StackerState) (*Stacker, error) {
	if st == nil {
		return nil, fmt.Errorf("meta: nil stacker state")
	}
	if len(st.LearnerNames) == 0 {
		return nil, fmt.Errorf("meta: stacker state has no learners")
	}
	if len(st.Weights) != len(st.Labels) {
		return nil, fmt.Errorf("meta: %d weight rows for %d labels", len(st.Weights), len(st.Labels))
	}
	s := &Stacker{
		labels:       learn.LabelsOf(st.Labels),
		learnerNames: append([]string(nil), st.LearnerNames...),
		weights:      make([][]float64, len(st.Labels)),
	}
	for id, c := range st.Labels {
		if first, _ := s.labels.ID(c); first != id {
			return nil, fmt.Errorf("meta: duplicate label %q in stacker state", c)
		}
		if len(st.Weights[id]) != len(s.learnerNames) {
			return nil, fmt.Errorf("meta: label %q has %d weights for %d learners",
				c, len(st.Weights[id]), len(s.learnerNames))
		}
		s.weights[id] = append([]float64(nil), st.Weights[id]...)
	}
	return s, nil
}
