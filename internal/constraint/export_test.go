package constraint

import "repro/internal/learn"

// Repair runs the handler's repair pass on m in place, over the tag
// order and candidate lists Run would use, and returns its cost.
func (h *Handler) Repair(src *Source, preds map[string]learn.Prediction, m Assignment) float64 {
	order := h.tagOrder(src)
	cands := h.candidates(src, order, preds)
	return h.repair(src, preds, order, cands, indexConstraints(h.Constraints), m)
}

// OracleRepair is Repair with the full-recompute reference repair.
func (h *Handler) OracleRepair(src *Source, preds map[string]learn.Prediction, m Assignment) float64 {
	order := h.tagOrder(src)
	return h.oracleRepair(src, preds, order, h.candidates(src, order, preds), m)
}

// Candidates returns the labels repair may move each tag to, by tag.
func (h *Handler) Candidates(src *Source, preds map[string]learn.Prediction) map[string][]string {
	order := h.tagOrder(src)
	out := make(map[string][]string, len(order))
	for i, cs := range h.candidates(src, order, preds) {
		for _, c := range cs {
			out[order[i]] = append(out[order[i]], c.label)
		}
	}
	return out
}

// PredOf is predOf for the external tests.
var PredOf = predOf
