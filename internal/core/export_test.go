package core

import (
	"context"

	"repro/internal/constraint"
	"repro/internal/learn"
)

// MatchReference is Match with the per-instance reference scorer in
// place of combineBatch.
func (s *System) MatchReference(ctx context.Context, src *Source, feedback ...constraint.Constraint) (*MatchResult, error) {
	return s.match(ctx, src, s.referenceBatch, feedback)
}

// referenceBatch is the reference combineBatch must agree with bit for
// bit: every learner's per-instance Predict and the stacker's Combine,
// one instance at a time in batch order, with no deduplication and no
// combined memo.
func (s *System) referenceBatch(batch []learn.Instance) []learn.Prediction {
	out := make([]learn.Prediction, len(batch))
	base := make([]learn.Prediction, len(s.learners))
	for i, in := range batch {
		for j, l := range s.learners {
			base[j] = l.Predict(in)
		}
		out[i] = s.stacker.Combine(base)
	}
	return out
}
