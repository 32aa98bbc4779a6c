package constraint

import "fmt"

// ---------------------------------------------------------------------------
// Frequency constraints (hard, verified with the schema of the target
// source): bounds on how many source tags may match a label.

type frequency struct {
	label    string
	min, max int // max < 0 means unbounded
}

// AtMostOne returns the hard constraint "at most one source element
// matches label" (Table 1).
func AtMostOne(label string) Constraint {
	return &frequency{label: label, min: 0, max: 1}
}

// ExactlyOne returns the hard constraint "exactly one source element
// matches label" (Table 1).
func ExactlyOne(label string) Constraint {
	return &frequency{label: label, min: 1, max: 1}
}

// Frequency returns a hard constraint bounding how many source tags
// match label; max < 0 means no upper bound.
func Frequency(label string, min, max int) Constraint {
	return &frequency{label: label, min: min, max: max}
}

func (f *frequency) Name() string {
	return fmt.Sprintf("frequency: between %d and %d elements match %s", f.min, f.max, f.label)
}
func (f *frequency) Hard() bool       { return true }
func (f *frequency) Labels() []string { return []string{f.label} }
func (f *frequency) Weight() float64  { return 1 }

func (f *frequency) Violations(src *Source, m Assignment, complete bool) float64 {
	return adapt(f, src, m, complete)
}

// violations counts every tag assigned the label, those outside
// src.Tags included.
func (f *frequency) violations(_ *run, a *assignment, b *bound, complete bool) float64 {
	n := len(a.tags[b.labels[0]])
	if f.max >= 0 && n > f.max {
		return float64(n - f.max)
	}
	// A deficit is only definite once the assignment is complete.
	if complete && n < f.min {
		return float64(f.min - n)
	}
	return 0
}

// ---------------------------------------------------------------------------
// Nesting constraints (hard, schema-verifiable): relate labels through
// the source schema tree.

type nesting struct {
	outer, inner string
	forbid       bool
}

// NestedIn returns the hard constraint "if a matches outer and b
// matches inner, then b is nested in a" (Table 1).
func NestedIn(outer, inner string) Constraint {
	return &nesting{outer: outer, inner: inner}
}

// NotNestedIn returns the hard constraint "if a matches outer and b
// matches inner, then b cannot be nested in a" (Table 1).
func NotNestedIn(outer, inner string) Constraint {
	return &nesting{outer: outer, inner: inner, forbid: true}
}

func (n *nesting) Name() string {
	if n.forbid {
		return fmt.Sprintf("nesting: %s cannot be nested in %s", n.inner, n.outer)
	}
	return fmt.Sprintf("nesting: %s must be nested in %s", n.inner, n.outer)
}
func (n *nesting) Hard() bool       { return true }
func (n *nesting) Labels() []string { return []string{n.outer, n.inner} }
func (n *nesting) Weight() float64  { return 1 }

func (n *nesting) Violations(src *Source, m Assignment, complete bool) float64 {
	return adapt(n, src, m, complete)
}

func (n *nesting) violations(r *run, a *assignment, b *bound, _ bool) float64 {
	violations := 0
	inner := a.srcTags(b.labels[1])
	if len(inner) == 0 {
		return 0
	}
	for _, x := range a.srcTags(b.labels[0]) {
		for _, y := range inner {
			nested := r.canNest(x, y)
			if n.forbid && nested {
				violations++
			}
			if !n.forbid && !nested {
				violations++
			}
		}
	}
	return float64(violations)
}

// ---------------------------------------------------------------------------
// Contiguity constraints (hard, schema-verifiable): "if a matches
// labelA and b matches labelB, then a and b are siblings in the
// schema tree, and the elements between them (if any) can only match
// OTHER" (Table 1).

type contiguity struct {
	labelA, labelB string
}

// Contiguous returns the contiguity constraint for the two labels.
func Contiguous(labelA, labelB string) Constraint {
	return &contiguity{labelA, labelB}
}

func (c *contiguity) Name() string {
	return fmt.Sprintf("contiguity: %s and %s are adjacent siblings", c.labelA, c.labelB)
}
func (c *contiguity) Hard() bool       { return true }
func (c *contiguity) Labels() []string { return nil } // the between-tags check reacts to any label
func (c *contiguity) Weight() float64  { return 1 }

func (c *contiguity) Violations(src *Source, m Assignment, complete bool) float64 {
	return adapt(c, src, m, complete)
}

func (c *contiguity) violations(r *run, a *assignment, b *bound, _ bool) float64 {
	violations := 0
	tagsB := a.srcTags(b.labels[1])
	if len(tagsB) == 0 {
		return 0
	}
	for _, x := range a.srcTags(b.labels[0]) {
		for _, y := range tagsB {
			sib := r.siblings(x, y)
			if !sib.ok {
				violations++
				continue
			}
			for _, t := range r.between[sib.from:sib.to] {
				if l := a.of[t]; l >= 0 && l != r.other {
					violations++
				}
			}
		}
	}
	return float64(violations)
}

// ---------------------------------------------------------------------------
// Exclusivity constraints (hard, schema-verifiable): two labels cannot
// both be matched in one source.

type exclusivity struct {
	labelA, labelB string
}

// Exclusive returns the hard constraint "there are no a and b such that
// a matches labelA and b matches labelB" (Table 1).
func Exclusive(labelA, labelB string) Constraint {
	return &exclusivity{labelA, labelB}
}

func (e *exclusivity) Name() string {
	return fmt.Sprintf("exclusivity: %s and %s cannot both be matched", e.labelA, e.labelB)
}
func (e *exclusivity) Hard() bool       { return true }
func (e *exclusivity) Labels() []string { return []string{e.labelA, e.labelB} }
func (e *exclusivity) Weight() float64  { return 1 }

func (e *exclusivity) Violations(src *Source, m Assignment, complete bool) float64 {
	return adapt(e, src, m, complete)
}

func (e *exclusivity) violations(_ *run, a *assignment, b *bound, _ bool) float64 {
	if len(a.srcTags(b.labels[0])) > 0 && len(a.srcTags(b.labels[1])) > 0 {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Column constraints (hard, verified with schema + data from the target
// source): key and functional-dependency regularities on extracted
// data. The paper notes data constraints can only ever be refuted, not
// proven, by a sample; a violation found in the extracted data is
// definite.

type key struct {
	label string
}

// Key returns the hard constraint "if a matches label, then a is a
// key": the extracted values of a must contain no duplicates (Table 1,
// the HOUSE-ID example; §1's num-bedrooms counter-example).
func Key(label string) Constraint { return &key{label} }

func (k *key) Name() string     { return fmt.Sprintf("column: %s is a key", k.label) }
func (k *key) Hard() bool       { return true }
func (k *key) Labels() []string { return []string{k.label} }
func (k *key) Weight() float64  { return 1 }

func (k *key) Violations(src *Source, m Assignment, complete bool) float64 {
	return adapt(k, src, m, complete)
}

func (k *key) violations(r *run, a *assignment, b *bound, _ bool) float64 {
	violations := 0
	for _, t := range a.srcTags(b.labels[0]) {
		if r.dupColumn(t) {
			violations++
		}
	}
	return float64(violations)
}

type functionalDep struct {
	determinants []string
	dependent    string
}

// FunctionalDep returns the hard constraint "the tags matching the
// determinant labels functionally determine the tag matching the
// dependent label" in the extracted rows (Table 1, the CITY/FIRM-NAME →
// FIRM-ADDRESS example).
func FunctionalDep(determinants []string, dependent string) Constraint {
	return &functionalDep{append([]string(nil), determinants...), dependent}
}

func (f *functionalDep) Name() string {
	return fmt.Sprintf("column: %v functionally determine %s", f.determinants, f.dependent)
}
func (f *functionalDep) Hard() bool { return true }
func (f *functionalDep) Labels() []string {
	return append(append([]string{}, f.determinants...), f.dependent)
}
func (f *functionalDep) Weight() float64 { return 1 }

func (f *functionalDep) Violations(src *Source, m Assignment, complete bool) float64 {
	return adapt(f, src, m, complete)
}

func (f *functionalDep) violations(r *run, a *assignment, b *bound, _ bool) float64 {
	// Resolve each determinant label to a single assigned tag; the
	// check applies only when every label involved is assigned.
	dets, dependent := b.labels[:len(f.determinants)], b.labels[len(f.determinants)]
	detTags := make([]string, 0, len(dets))
	for _, l := range dets {
		tags := a.srcTags(l)
		if len(tags) == 0 {
			return 0
		}
		detTags = append(detTags, r.tags[tags[0]])
	}
	depTags := a.srcTags(dependent)
	if len(depTags) == 0 {
		return 0
	}
	dep := r.tags[depTags[0]]
	seen := make(map[string]string)
	for _, row := range r.src.Rows {
		keyParts := ""
		missing := false
		for _, t := range detTags {
			v, ok := row[t]
			if !ok {
				missing = true
				break
			}
			keyParts += v + "\x00"
		}
		depVal, okDep := row[dep]
		if missing || !okDep {
			continue
		}
		if prev, ok := seen[keyParts]; ok && prev != depVal {
			return 1
		}
		seen[keyParts] = depVal
	}
	return 0
}

// ---------------------------------------------------------------------------
// Soft constraints.

// binarySoft is a soft constraint with violation cost 1 (Table 1).
type binarySoft struct {
	name   string
	weight float64
	labels []string
	pred   func(src *Source, m Assignment, complete bool) bool // true = violated
}

// BinarySoft returns a soft constraint with cost-of-violation 1 scaled
// by weight; violated reports whether m violates it.
// labels lists the mediated labels the predicate depends on; nil means
// it must be re-checked after every assignment.
func BinarySoft(name string, weight float64, labels []string, violated func(src *Source, m Assignment, complete bool) bool) Constraint {
	return &binarySoft{name, weight, labels, violated}
}

// AtMostSoft returns the Table-1 soft example "number of elements that
// match label is not more than n".
func AtMostSoft(label string, n int, weight float64) Constraint {
	return BinarySoft(
		fmt.Sprintf("binary: at most %d elements match %s", n, label),
		weight,
		[]string{label},
		func(src *Source, m Assignment, _ bool) bool {
			return m.CountTagsFor(src, label) > n
		})
}

func (b *binarySoft) Name() string     { return b.name }
func (b *binarySoft) Hard() bool       { return false }
func (b *binarySoft) Labels() []string { return b.labels }
func (b *binarySoft) Weight() float64  { return b.weight }

func (b *binarySoft) Violations(src *Source, m Assignment, complete bool) float64 {
	if b.pred(src, m, complete) {
		return 1
	}
	return 0
}

// proximity is the numeric soft constraint of Table 1: "if a matches
// labelA and b matches labelB, then we prefer a and b to be as close to
// each other as possible". The violation degree is the number of tags
// strictly between a and b in source-schema order, normalized by the
// schema size.
type proximity struct {
	labelA, labelB string
	weight         float64
}

// Near returns the numeric soft proximity constraint for two labels.
func Near(labelA, labelB string, weight float64) Constraint {
	return &proximity{labelA, labelB, weight}
}

func (p *proximity) Name() string {
	return fmt.Sprintf("numeric: prefer %s close to %s", p.labelA, p.labelB)
}
func (p *proximity) Hard() bool       { return false }
func (p *proximity) Labels() []string { return []string{p.labelA, p.labelB} }
func (p *proximity) Weight() float64  { return p.weight }

func (p *proximity) Violations(src *Source, m Assignment, complete bool) float64 {
	return adapt(p, src, m, complete)
}

// violations reads positions in src.Tags as tag ids, which number
// src.Tags in order.
func (p *proximity) violations(r *run, a *assignment, b *bound, _ bool) float64 {
	n := r.nSrc
	total := 0.0
	for _, x := range a.srcTags(b.labels[0]) {
		for _, y := range a.srcTags(b.labels[1]) {
			d := int(x) - int(y)
			if d < 0 {
				d = -d
			}
			if d > 1 && n > 1 {
				total += float64(d-1) / float64(n-1)
			}
		}
	}
	return total
}

// ---------------------------------------------------------------------------
// Structural arity constraints (hard, schema-verifiable): whether a
// label may map to an atomic or a compound source element. These are
// nesting-type regularities (Table 1): "AGENT-NAME is an atomic value"
// and "CONTACT-INFO is a compound element" are facts a mediated-schema
// designer knows when writing the schema.

type leafness struct {
	label   string
	nonLeaf bool
}

// LeafLabel returns the hard constraint that any source tag matching
// label must be a leaf (atomic) element in the source schema.
func LeafLabel(label string) Constraint { return &leafness{label: label} }

// NonLeafLabel returns the hard constraint that any source tag matching
// label must be a compound (non-leaf) element in the source schema.
func NonLeafLabel(label string) Constraint {
	return &leafness{label: label, nonLeaf: true}
}

func (l *leafness) Name() string {
	if l.nonLeaf {
		return fmt.Sprintf("nesting: %s is a compound element", l.label)
	}
	return fmt.Sprintf("nesting: %s is an atomic element", l.label)
}
func (l *leafness) Hard() bool       { return true }
func (l *leafness) Labels() []string { return []string{l.label} }
func (l *leafness) Weight() float64  { return 1 }

func (l *leafness) Violations(src *Source, m Assignment, complete bool) float64 {
	return adapt(l, src, m, complete)
}

func (l *leafness) violations(r *run, a *assignment, b *bound, _ bool) float64 {
	violations := 0
	for _, t := range a.srcTags(b.labels[0]) {
		if l.nonLeaf == r.isLeaf(t) {
			violations++
		}
	}
	return float64(violations)
}

// IsDataConstraint reports whether the constraint needs extracted data
// to verify (the "Schema + data from target source" rows of Table 1:
// key and functional-dependency constraints). The schema-vs-data lesion
// study (§6.2, Figure 9.b) partitions the constraint set with this.
func IsDataConstraint(c Constraint) bool {
	switch c.(type) {
	case *key, *functionalDep:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// User feedback (§4.3): equality and inequality constraints on a single
// source, treated as additional hard domain constraints while matching
// that source.

type mustMatch struct {
	tag, label string
	forbid     bool
}

// MustMatch returns the feedback constraint "tag matches label".
func MustMatch(tag, label string) Constraint {
	return &mustMatch{tag: tag, label: label}
}

// MustNotMatch returns the feedback constraint "tag does not match
// label" (the paper's "ad-id does not match HOUSE-ID" example).
func MustNotMatch(tag, label string) Constraint {
	return &mustMatch{tag: tag, label: label, forbid: true}
}

func (u *mustMatch) Name() string {
	if u.forbid {
		return fmt.Sprintf("feedback: %s does not match %s", u.tag, u.label)
	}
	return fmt.Sprintf("feedback: %s matches %s", u.tag, u.label)
}
func (u *mustMatch) Hard() bool       { return true }
func (u *mustMatch) Labels() []string { return nil } // reacts to any assignment of its tag
func (u *mustMatch) Weight() float64  { return 1 }

func (u *mustMatch) Violations(src *Source, m Assignment, complete bool) float64 {
	return adapt(u, src, m, complete)
}

func (u *mustMatch) violations(_ *run, a *assignment, b *bound, _ bool) float64 {
	if b.tag < 0 {
		return 0
	}
	l := a.of[b.tag]
	if l < 0 {
		return 0
	}
	if u.forbid {
		if l == b.labels[0] {
			return 1
		}
		return 0
	}
	if l != b.labels[0] {
		return 1
	}
	return 0
}
