package constraint

import (
	"math"

	"repro/internal/learn"
)

// oracleRepair is the reference repair: the same hill-climb as repair,
// costing every candidate move with a full recompute of the total cost.
// repair must reproduce its decisions, its mapping and the bits of its
// returned cost; the differential tests hold it to that.
func (h *Handler) oracleRepair(src *Source, preds map[string]learn.Prediction,
	order []string, cands [][]candidate, m Assignment) float64 {

	total := func() float64 {
		cc := Cost(h.Constraints, src, m, true)
		if math.IsInf(cc, 1) {
			return cc
		}
		return h.Alpha*ProbCost(preds, m) + cc
	}
	cur := total()
	for pass := 0; pass < 10; pass++ {
		improved := false
		// Single reassignments.
		for i, tag := range order {
			was := m[tag]
			for _, cand := range cands[i] {
				if cand.label == was {
					continue
				}
				m[tag] = cand.label
				if c := total(); c < cur-1e-12 {
					cur, was, improved = c, cand.label, true
				} else {
					m[tag] = was
				}
			}
			m[tag] = was
		}
		// Pairwise swaps.
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				ti, tj := order[i], order[j]
				if m[ti] == m[tj] {
					continue
				}
				m[ti], m[tj] = m[tj], m[ti]
				if c := total(); c < cur-1e-12 {
					cur, improved = c, true
				} else {
					m[ti], m[tj] = m[tj], m[ti]
				}
			}
		}
		if !improved {
			break
		}
	}
	if math.IsInf(cur, 1) {
		// The greedy fallback can be infeasible; report its soft cost.
		return h.Alpha*ProbCost(preds, m) + softOnlyCost(h.Constraints, src, m)
	}
	return cur
}
