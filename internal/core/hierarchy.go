package core

import (
	"repro/internal/learn"
)

// LabelHierarchy is the §7 extension for ambiguous tags: a taxonomy
// over mediated labels in which each label refers to a concept more
// general than its descendants (CREDIT above COURSE-CREDIT and
// SECTION-CREDIT). When a source tag's prediction cannot separate two
// sibling labels, LSD matches the tag with the most specific
// unambiguous ancestor and leaves the final choice to the user.
type LabelHierarchy struct {
	parent map[string]string
}

// NewLabelHierarchy builds a hierarchy from child → parent edges.
// Labels absent from the map are roots.
func NewLabelHierarchy(parentOf map[string]string) *LabelHierarchy {
	cp := make(map[string]string, len(parentOf))
	for c, p := range parentOf {
		cp[c] = p
	}
	return &LabelHierarchy{parent: cp}
}

// Parent returns the immediate ancestor of label, or "".
func (h *LabelHierarchy) Parent(label string) string { return h.parent[label] }

// ParentMap returns a copy of the child → parent edges, the inverse of
// NewLabelHierarchy; model artifacts serialize hierarchies through it.
func (h *LabelHierarchy) ParentMap() map[string]string {
	cp := make(map[string]string, len(h.parent))
	for c, p := range h.parent {
		cp[c] = p
	}
	return cp
}

// Ancestors returns the chain of ancestors of label, nearest first.
func (h *LabelHierarchy) Ancestors(label string) []string {
	var out []string
	seen := map[string]bool{label: true}
	for p := h.parent[label]; p != "" && !seen[p]; p = h.parent[p] {
		out = append(out, p)
		seen[p] = true
	}
	return out
}

// CommonAncestor returns the nearest common ancestor of a and b, or ""
// when they share none.
func (h *LabelHierarchy) CommonAncestor(a, b string) string {
	up := map[string]bool{}
	for _, anc := range h.Ancestors(a) {
		up[anc] = true
	}
	for _, anc := range h.Ancestors(b) {
		if up[anc] {
			return anc
		}
	}
	return ""
}

// AmbiguityRatio is the default closeness threshold for Suggest: the
// runner-up must score at least this fraction of the winner for the
// prediction to count as ambiguous.
const AmbiguityRatio = 0.8

// Suggest inspects a tag's converter prediction. If the top two labels
// are ambiguous (runner-up ≥ ratio × winner) and share a common
// ancestor, it returns that ancestor and true: the partial mapping of
// §7. Otherwise it returns "" and false.
func (h *LabelHierarchy) Suggest(p learn.Prediction, ratio float64) (string, bool) {
	if h == nil || p.Len() < 2 {
		return "", false
	}
	// The top two label ids, scanned in label order so ties go to the
	// label that sorts first.
	first, second := -1, -1
	var s1, s2 float64
	for i := 0; i < p.Len(); i++ {
		id := p.Labels().SortedID(i)
		s := p.At(id)
		switch {
		case s > s1:
			second, s2 = first, s1
			first, s1 = id, s
		case s > s2:
			second, s2 = id, s
		}
	}
	if s1 <= 0 || s2 < ratio*s1 {
		return "", false
	}
	anc := h.CommonAncestor(p.Labels().Name(first), p.Labels().Name(second))
	if anc == "" {
		return "", false
	}
	return anc, true
}
