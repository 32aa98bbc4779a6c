package core

import (
	"context"

	"repro/internal/constraint"
	"repro/internal/learn"
	"repro/internal/xmltree"
)

// MatchReference is Match with the per-instance reference scorer in
// place of score.
func (s *System) MatchReference(ctx context.Context, src *Source, feedback ...constraint.Constraint) (*MatchResult, error) {
	return s.match(ctx, src, s.referenceScore, feedback)
}

// referenceScore is the reference score must agree with bit for bit:
// every learner's per-instance Predict and the stacker's Combine, one
// instance at a time in batch order, with no deduplication, no
// combined memo and no label table. Each instance's sub-elements are
// labelled for it by referenceSubLabels.
func (s *System) referenceScore(_ context.Context, batches [][]learn.Instance) ([][]learn.Prediction, error) {
	label := s.labelsSubElements()
	out := make([][]learn.Prediction, len(batches))
	base := make([]learn.Prediction, len(s.learners))
	for ti, batch := range batches {
		out[ti] = make([]learn.Prediction, len(batch))
		for i, in := range batch {
			if label && in.Node != nil {
				in.SubLabels = s.referenceSubLabels(in)
			}
			for j, l := range s.learners {
				base[j] = l.Predict(in)
			}
			out[ti][i] = s.stacker.Combine(base)
		}
	}
	return out, nil
}

// referenceSubLabels labels every node below in's node, one node at a
// time: the interim stacker's best label over the Predict of the node's
// own instance by each learner it combines, OTHER when it has none.
func (s *System) referenceSubLabels(in learn.Instance) map[*xmltree.Node]string {
	labels := make(map[*xmltree.Node]string)
	above := in.Path[:len(in.Path)-1]
	in.Node.Walk(func(n *xmltree.Node, rel []string) {
		if n == in.Node {
			return
		}
		sub := NewInstance(s.mediated, n, append(append([]string(nil), above...), rel...))
		preds := make([]learn.Prediction, s.interimStacker.Len())
		for j := range preds {
			preds[j] = s.learners[j].Predict(sub)
		}
		best, _ := s.interimStacker.Combine(preds).Best()
		if best == "" {
			best = learn.Other
		}
		labels[n] = best
	})
	return labels
}
