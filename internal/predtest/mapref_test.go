package predtest

// The map-based reference: normalization, Best, Stacker.Combine,
// meta.Convert and LabelHierarchy.Suggest as they were when a
// prediction was a label → score map. The dense versions must agree
// with them bit for bit (dense_test.go).

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/meta"
)

// mapPred is a prediction as a label → score map.
type mapPred map[string]float64

// labels returns p's labels in sorted order.
func (p mapPred) labels() []string {
	out := make([]string, 0, len(p))
	for c := range p {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// normalize clamps negative scores to 0 and scales the rest to sum to
// 1, summing in sorted-value order; an all-zero map becomes uniform.
func (p mapPred) normalize() mapPred {
	vals := make([]float64, 0, len(p))
	for c, s := range p {
		if s < 0 {
			p[c] = 0
		} else {
			vals = append(vals, s)
		}
	}
	sort.Float64s(vals)
	sum := 0.0
	for _, s := range vals {
		sum += s
	}
	if sum == 0 {
		if len(p) == 0 {
			return p
		}
		u := 1 / float64(len(p))
		for c := range p {
			p[c] = u
		}
		return p
	}
	for c := range p {
		p[c] /= sum
	}
	return p
}

// best returns the highest-scoring label, ties to the first in label
// order; ("", 0) for the empty map.
func (p mapPred) best() (string, float64) {
	best, bestScore := "", math.Inf(-1)
	for _, c := range p.labels() {
		if s := p[c]; s > bestScore {
			best, bestScore = c, s
		}
	}
	if best == "" {
		return "", 0
	}
	return best, bestScore
}

// mapCombine is Stacker.Combine over maps: per label, the weighted sum
// of the learners' scores in learner order, then normalize.
func mapCombine(st *meta.StackerState, preds []mapPred) mapPred {
	out := make(mapPred, len(st.Labels))
	for id, c := range st.Labels {
		w := st.Weights[id]
		score := 0.0
		for j, p := range preds {
			score += w[j] * p[c]
		}
		out[c] = score
	}
	return out.normalize()
}

// mapConvert is meta.Convert over maps.
func mapConvert(mode meta.ConverterMode, labels []string, preds []mapPred) mapPred {
	if len(preds) == 0 {
		u := make(mapPred, len(labels))
		for _, c := range labels {
			u[c] = 1 / float64(len(labels))
		}
		return u
	}
	out := make(mapPred, len(labels))
	switch mode {
	case meta.Max:
		for _, p := range preds {
			for _, c := range labels {
				if p[c] > out[c] {
					out[c] = p[c]
				}
			}
		}
	default:
		n := float64(len(preds))
		for _, p := range preds {
			for _, c := range labels {
				out[c] += p[c] / n
			}
		}
	}
	return out.normalize()
}

// mapSuggest is LabelHierarchy.Suggest over a map.
func mapSuggest(h *core.LabelHierarchy, p mapPred, ratio float64) (string, bool) {
	if h == nil || len(p) < 2 {
		return "", false
	}
	first, second := "", ""
	var s1, s2 float64
	for _, c := range p.labels() {
		s := p[c]
		switch {
		case s > s1:
			second, s2 = first, s1
			first, s1 = c, s
		case s > s2:
			second, s2 = c, s
		}
	}
	if s1 <= 0 || s2 < ratio*s1 {
		return "", false
	}
	anc := h.CommonAncestor(first, second)
	if anc == "" {
		return "", false
	}
	return anc, true
}
