package constraint

import "repro/internal/learn"

// Repair runs the handler's repair pass on m in place, over the tag
// order and candidate lists Run would use, and returns its cost. m
// must map every tag of src.Tags.
func (h *Handler) Repair(src *Source, preds map[string]learn.Prediction, m Assignment) float64 {
	order := h.tagOrder(src)
	cands := h.candidates(src, order, preds)
	r := newRun(src, h.Constraints, preds, cands, m)
	a := r.assignmentOf(m)
	cost := h.repair(r, r.tagIDs(order), cands, a)
	for _, t := range r.tagIDs(order) {
		m[r.tags[t]] = r.labels[a.of[t]]
	}
	return cost
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

// RefViolations is the map reference's violation degree.
var RefViolations = refViolations

// Numbered is a run numbered as Run numbers one, plus the tags and
// labels of a start mapping, and an assignment over it.
type Numbered struct {
	r *run
	a *assignment
}

// Number numbers a run over h's constraints, the candidates Run would
// give preds, and start, and returns start in its ids.
func (h *Handler) Number(src *Source, preds map[string]learn.Prediction, start Assignment) *Numbered {
	order := h.tagOrder(src)
	r := newRun(src, h.Constraints, preds, h.candidates(src, order, preds), start)
	return &Numbered{r, r.assignmentOf(start)}
}

// Tags returns the numbered tags and Labels the numbered labels.
func (n *Numbered) Tags() []string   { return n.r.tags }
func (n *Numbered) Labels() []string { return n.r.labels }

// Set assigns the i-th numbered tag the l-th numbered label, or
// unassigns it when l is -1.
func (n *Numbered) Set(i, l int) { n.a.set(int32(i), int32(l)) }

// Violations returns each constraint's id-evaluated violation degree.
func (n *Numbered) Violations(complete bool) []float64 {
	out := make([]float64, len(n.r.cons))
	for k := range out {
		out[k] = n.r.violations(k, n.a, complete)
	}
	return out
}
