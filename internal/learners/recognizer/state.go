package recognizer

// Serialization support: a dictionary recognizer is its normalized
// entry set plus the hit rate calibrated during training. Entries are
// stored already normalized, so Restore inserts them verbatim instead
// of re-running normalization (which would be a behavioural no-op but
// wasted work on large dictionaries).

import (
	"fmt"
	"sort"

	"repro/internal/learn"
)

// State is the serializable view of a trained Dictionary.
type State struct {
	Name   string
	Target string
	// Entries are the normalized dictionary entries, sorted.
	Entries []string
	Labels  []string
	HitRate float64
}

// State snapshots the recognizer.
func (d *Dictionary) State() *State {
	st := &State{
		Name:    d.name,
		Target:  d.target,
		Entries: make([]string, 0, len(d.entries)),
		Labels:  d.labels.Names(),
		HitRate: d.hitRate,
	}
	for e := range d.entries {
		st.Entries = append(st.Entries, e)
	}
	sort.Strings(st.Entries)
	return st
}

// Restore rebuilds a trained recognizer from a snapshot.
func Restore(st *State) (*Dictionary, error) {
	if st == nil {
		return nil, fmt.Errorf("recognizer: nil state")
	}
	if st.Name == "" || st.Target == "" {
		return nil, fmt.Errorf("recognizer: state missing name or target")
	}
	if st.HitRate < 0 || st.HitRate > 1 {
		return nil, fmt.Errorf("recognizer: hit rate %v outside [0, 1]", st.HitRate)
	}
	d := &Dictionary{
		name:    st.Name,
		target:  st.Target,
		entries: make(map[string]bool, len(st.Entries)),
		labels:  learn.LabelsOf(st.Labels),
		hitRate: st.HitRate,
	}
	if _, ok := d.labels.ID(st.Target); !ok && d.labels.Len() > 0 {
		return nil, fmt.Errorf("recognizer: target %q outside label set", st.Target)
	}
	for _, e := range st.Entries {
		d.entries[e] = true
	}
	return d, nil
}
