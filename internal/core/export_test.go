package core

import (
	"context"

	"repro/internal/constraint"
	"repro/internal/learn"
)

// MatchReference is Match with the per-instance reference scorer in
// place of score.
func (s *System) MatchReference(ctx context.Context, src *Source, feedback ...constraint.Constraint) (*MatchResult, error) {
	return s.match(ctx, src, s.referenceScore, feedback)
}

// referenceScore is the reference score must agree with bit for bit:
// every learner's per-instance Predict and the stacker's Combine, one
// instance at a time in batch order, with no deduplication, no
// combined memo and no labels from the match's own predictions (the
// XML learner's labeler labels each sub-element itself).
func (s *System) referenceScore(_ context.Context, batches [][]learn.Instance) ([][]learn.Prediction, error) {
	out := make([][]learn.Prediction, len(batches))
	base := make([]learn.Prediction, len(s.learners))
	for ti, batch := range batches {
		out[ti] = make([]learn.Prediction, len(batch))
		for i, in := range batch {
			for j, l := range s.learners {
				base[j] = l.Predict(in)
			}
			out[ti][i] = s.stacker.Combine(base)
		}
	}
	return out, nil
}
