package constraint

// The map-based reference for the handler's use of predictions: the
// candidate lists and ProbCost as they were when a prediction was a
// label → score map. The dense versions must agree bit for bit.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/learn"
	"repro/internal/predtest"
)

// mapCandidates is candidates over label → score maps: every label in
// sorted order, stably sorted by decreasing score, cut to TopK, then
// OTHER and any feedback-forced label appended when missing.
func (h *Handler) mapCandidates(order []string, preds map[string]map[string]float64) [][]candidate {
	forced := make(map[string]string)
	for _, c := range h.Constraints {
		if mm, ok := c.(*mustMatch); ok && !mm.forbid {
			forced[mm.tag] = mm.label
		}
	}
	out := make([][]candidate, len(order))
	for i, tag := range order {
		p := preds[tag]
		labels := make([]string, 0, len(p))
		for c := range p {
			labels = append(labels, c)
		}
		sort.Strings(labels)
		cs := make([]candidate, 0, len(labels))
		for _, l := range labels {
			cs = append(cs, candidate{label: l, score: p[l]})
		}
		sort.SliceStable(cs, func(a, b int) bool { return cs[a].score > cs[b].score })
		if h.TopK > 0 && len(cs) > h.TopK {
			cs = cs[:h.TopK]
		}
		if !containsLabel(cs, learn.Other) {
			cs = append(cs, candidate{label: learn.Other, score: p[learn.Other]})
		}
		if l, ok := forced[tag]; ok && !containsLabel(cs, l) {
			cs = append(cs, candidate{label: l, score: p[l]})
		}
		out[i] = cs
	}
	return out
}

// mapProbCost is ProbCost over label → score maps.
func mapProbCost(preds map[string]map[string]float64, m Assignment) float64 {
	const eps = 1e-6
	tags := make([]string, 0, len(m))
	for tag := range m {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	cost := 0.0
	for _, tag := range tags {
		s := preds[tag][m[tag]]
		if s < eps {
			s = eps
		}
		cost -= math.Log(s)
	}
	return cost
}

// randomPreds returns dense predictions for src's tags over table, one
// tag in eight left without a prediction, and their reference maps.
func randomPreds(rng *rand.Rand, src *Source, table *learn.Labels) (map[string]learn.Prediction, map[string]map[string]float64) {
	preds := make(map[string]learn.Prediction)
	refs := make(map[string]map[string]float64)
	for _, tag := range src.Tags {
		if rng.Intn(8) == 0 {
			continue
		}
		p := learn.Normalized(table, predtest.Scores(rng, table.Len()))
		preds[tag] = p
		refs[tag] = p.Map()
	}
	return preds, refs
}

func TestCandidatesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := testSource()
	for _, n := range predtest.Sizes {
		names := predtest.Labels(rng, n)
		if n > 1 {
			names[rng.Intn(n)] = learn.Other
		}
		table := learn.LabelsOf(names)
		for trial := 0; trial < 100; trial++ {
			preds, refs := randomPreds(rng, src, table)
			h := NewHandler()
			h.TopK = []int{0, 1, 6, n + 3}[rng.Intn(4)]
			tag := src.Tags[rng.Intn(len(src.Tags))]
			h.Constraints = []Constraint{MustMatch(tag, names[rng.Intn(n)]), MustMatch(tag, "UNSCORED")}
			order := h.tagOrder(src)
			got, want := h.candidates(src, order, preds), h.mapCandidates(order, refs)
			for i := range order {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("n=%d tag %s: %d candidates, reference %d", n, order[i], len(got[i]), len(want[i]))
				}
				for k, c := range got[i] {
					w := want[i][k]
					if c.label != w.label || math.Float64bits(c.score) != math.Float64bits(w.score) {
						t.Fatalf("n=%d tag %s candidate %d: %s %.17g, reference %s %.17g",
							n, order[i], k, c.label, c.score, w.label, w.score)
					}
				}
			}
		}
	}
}

func TestProbCostMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := testSource()
	for _, n := range predtest.Sizes {
		names := predtest.Labels(rng, n)
		table := learn.LabelsOf(names)
		for trial := 0; trial < 100; trial++ {
			preds, refs := randomPreds(rng, src, table)
			m := Assignment{}
			for _, tag := range src.Tags {
				switch rng.Intn(5) {
				case 0: // unassigned
				case 1:
					m[tag] = "UNSCORED"
				default:
					m[tag] = names[rng.Intn(n)]
				}
			}
			want := mapProbCost(refs, m)
			if got := ProbCost(preds, m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: ProbCost = %.17g, reference %.17g", n, got, want)
			}
			r := newRun(src, nil, preds, nil, m)
			if got := r.probCost(r.assignmentOf(m)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: probCost over ids = %.17g, reference %.17g", n, got, want)
			}
		}
	}
}
