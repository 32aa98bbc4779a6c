// Package constraint implements LSD's domain constraints and the
// constraint handler (§4). Constraints impose semantic regularities on
// the schemas and data of a domain's sources; they are specified once,
// when the mediated schema is created, and reused for every source. The
// handler searches the space of candidate mappings with A* for the
// mapping minimizing
//
//	cost(m) = Σᵢ λᵢ·cost(m, Tᵢ) − α·log prob(m)
//
// where prob(m) = Πⱼ s(c_ij | e_j, PC) comes from the prediction
// converter, hard-constraint violations have infinite cost, and soft
// violations contribute their weighted degree. User feedback (§4.3) is
// expressed as additional constraints scoped to the current source.
package constraint

import "repro/internal/dtd"

// Source bundles everything a constraint can inspect about the target
// source: its schema and the data extracted from it.
type Source struct {
	// Schema is the source DTD.
	Schema *dtd.Schema
	// Tags are the source-schema tags being mapped, in schema order,
	// each once.
	Tags []string
	// Columns maps each source tag to the data values extracted for it.
	Columns map[string][]string
	// Rows are the extracted listings as tag → value tuples, used by
	// functional-dependency constraints.
	Rows []map[string]string
}

// Assignment is a candidate mapping: source tag → label.
type Assignment map[string]string

// Clone copies the assignment.
func (m Assignment) Clone() Assignment {
	out := make(Assignment, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TagsFor returns the source tags mapped to label, in src.Tags order.
func (m Assignment) TagsFor(src *Source, label string) []string {
	var out []string
	for _, tag := range src.Tags {
		if m[tag] == label {
			out = append(out, tag)
		}
	}
	return out
}

// CountTagsFor returns how many source tags are mapped to label,
// without materializing the tag list: what a custom constraint that
// only needs cardinality (AtMostSoft's predicate) calls.
func (m Assignment) CountTagsFor(src *Source, label string) int {
	n := 0
	for _, tag := range src.Tags {
		if m[tag] == label {
			n++
		}
	}
	return n
}

// Constraint is one domain constraint. Implementations must be
// monotone for partial assignments: with complete == false,
// Violations may only report violations that cannot disappear when the
// assignment is extended. Completion-dependent checks (e.g. "exactly
// one tag matches PRICE" when none does yet) must wait for complete ==
// true.
type Constraint interface {
	// Name describes the constraint for reports and feedback messages.
	Name() string
	// Hard reports whether any violation makes the mapping infeasible.
	Hard() bool
	// Weight is the scaling coefficient λ for soft constraints; it is
	// ignored for hard constraints.
	Weight() float64
	// Violations returns the degree to which m violates the constraint
	// (0 = satisfied). For hard constraints any positive value rejects m.
	Violations(src *Source, m Assignment, complete bool) float64
	// Labels returns the mediated labels whose assignment can change the
	// constraint's violation degree, or nil when any assignment can
	// (e.g. equality feedback). The A* handler uses this to re-evaluate
	// only the constraints affected by each new assignment.
	Labels() []string
}
