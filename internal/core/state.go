// Trained-system snapshot and restore: the bridge between the training
// pipeline and the model-artifact layer (internal/artifact). A System
// is immutable after Train — frozen vocabularies, precomputed tables,
// fitted weights — so its state is plain data, and FromState builds a
// system on it without writing to any learner.
package core

import (
	"fmt"
	"slices"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/learn"
	"repro/internal/memo"
	"repro/internal/meta"
)

// SystemState is the serializable view of a trained System. Learner
// instances appear as trained learn.Learner values; the artifact layer
// owns turning each concrete learner type into bytes and back.
type SystemState struct {
	// Config carries the matching-phase knobs (converter mode,
	// constraint handler, listing cap, seed). BaseLearners, Handler,
	// and Workers do not survive serialization: the first two are code,
	// and the worker budget belongs to the process serving the model,
	// not the process that trained it.
	Config Config
	// MediatedDTD is the mediated schema as DTD text.
	MediatedDTD string
	// ConstraintSpecs describe the mediated constraints
	// (constraint.Describe); constraints whose behaviour is code
	// (opaque user types, BinarySoft closures) cannot be captured and
	// are counted in DroppedConstraints instead.
	ConstraintSpecs []constraint.Spec
	// DroppedConstraints counts constraints State could not describe.
	DroppedConstraints int
	// Synonyms and HierarchyParent mirror Mediated.
	Synonyms        map[string][]string
	HierarchyParent map[string]string

	// Labels is the model's label table; artifacts carry its label list
	// and decoding rebuilds it with learn.LabelsOf.
	Labels   *learn.Labels
	Names    []string
	Learners []learn.Learner
	Stacker  *meta.Stacker
	// InterimStacker, the interim ensemble that labels sub-elements
	// while matching, stacks the first InterimStacker.Len() learners;
	// nil when the XML learner is absent or stand-alone.
	InterimStacker *meta.Stacker
}

// State snapshots the trained system.
func (s *System) State() *SystemState {
	st := &SystemState{
		Config:         s.cfg,
		MediatedDTD:    s.mediated.Schema.String(),
		Synonyms:       s.mediated.Synonyms,
		Labels:         s.labels,
		Names:          s.stacker.LearnerNames(),
		Learners:       append([]learn.Learner(nil), s.learners...),
		Stacker:        s.stacker,
		InterimStacker: s.interimStacker,
	}
	st.Config.BaseLearners = nil
	st.Config.Handler = nil
	st.Config.Workers = 0
	if s.mediated.Hierarchy != nil {
		st.HierarchyParent = s.mediated.Hierarchy.ParentMap()
	}
	for _, c := range s.mediated.Constraints {
		spec := constraint.Describe(c)
		if _, err := constraint.FromSpec(spec); err != nil {
			st.DroppedConstraints++
			continue
		}
		st.ConstraintSpecs = append(st.ConstraintSpecs, spec)
	}
	return st
}

// FromState rebuilds a trained System from a snapshot: it re-parses
// the mediated schema and reconstructs the constraint set from its
// specs. It writes to nothing in st, so several systems may be built
// from one snapshot and share its learners. workers sets the rebuilt
// system's worker budget (same semantics as Config.Workers).
func FromState(st *SystemState, workers int) (*System, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil system state")
	}
	if len(st.Names) != len(st.Learners) {
		return nil, fmt.Errorf("core: %d learner names for %d learners", len(st.Names), len(st.Learners))
	}
	if len(st.Learners) == 0 {
		return nil, fmt.Errorf("core: state has no learners")
	}
	if st.Stacker == nil {
		return nil, fmt.Errorf("core: state has no stacker")
	}
	// The stackers combine learners by position: the stacker all of
	// them, the interim stacker the first k, which pass 1 predicts.
	if names := st.Stacker.LearnerNames(); !slices.Equal(names, st.Names) {
		return nil, fmt.Errorf("core: stacker combines learners %q, state has %q", names, st.Names)
	}
	if in := st.InterimStacker; in != nil {
		k := in.Len()
		if k > len(st.Names) || !slices.Equal(in.LearnerNames(), st.Names[:k]) {
			return nil, fmt.Errorf("core: interim stacker combines learners %q, not a prefix of %q", in.LearnerNames(), st.Names)
		}
		if slices.ContainsFunc(st.Learners[:k], isXML) {
			return nil, fmt.Errorf("core: interim stacker combines an XML learner")
		}
	}
	schema, err := dtd.Parse(st.MediatedDTD)
	if err != nil {
		return nil, fmt.Errorf("core: mediated DTD: %w", err)
	}
	med := &Mediated{Schema: schema, Synonyms: st.Synonyms}
	for _, spec := range st.ConstraintSpecs {
		c, err := constraint.FromSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		med.Constraints = append(med.Constraints, c)
	}
	if len(st.HierarchyParent) > 0 {
		med.Hierarchy = NewLabelHierarchy(st.HierarchyParent)
	}

	cfg := st.Config
	cfg.Workers = workers
	sys := &System{
		cfg:            cfg,
		mediated:       med,
		labels:         st.Labels,
		learners:       append([]learn.Learner(nil), st.Learners...),
		stacker:        st.Stacker,
		interimStacker: st.InterimStacker,
		combined:       new(memo.Table[entry]),
	}
	return sys, nil
}

// WithWorkers returns a view of the system whose matching phase fans
// out on a pool of the given size (Config.Workers semantics). The view
// shares all trained state with the receiver — learners are immutable
// after training and safe for concurrent prediction — so the serving
// layer can honour a per-request worker budget without copying or
// re-locking anything.
func (s *System) WithWorkers(workers int) *System {
	if workers == s.cfg.Workers {
		return s
	}
	view := *s
	view.cfg.Workers = workers
	return &view
}
