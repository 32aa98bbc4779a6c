package constraint

// The map-based reference for the constraints: each built-in's
// violation degree computed over the Assignment map, as the handler
// computed it before it worked in ids, and the costs built on it. The
// id-based evaluation must agree with it bit for bit, and the repair
// oracle costs its moves with it, so the oracle shares no evaluation
// code with the repair it checks.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/learn"
)

// refViolations is c's violation degree under m by the map reference.
// A custom constraint answers for itself.
func refViolations(c Constraint, src *Source, m Assignment, complete bool) float64 {
	switch c := c.(type) {
	case *frequency:
		n := 0
		for _, label := range m {
			if label == c.label {
				n++
			}
		}
		if c.max >= 0 && n > c.max {
			return float64(n - c.max)
		}
		if complete && n < c.min {
			return float64(c.min - n)
		}
		return 0
	case *nesting:
		violations := 0
		inner := m.TagsFor(src, c.inner)
		if len(inner) == 0 {
			return 0
		}
		for _, a := range m.TagsFor(src, c.outer) {
			for _, b := range inner {
				nested := src.Schema.CanNest(a, b)
				if c.forbid && nested {
					violations++
				}
				if !c.forbid && !nested {
					violations++
				}
			}
		}
		return float64(violations)
	case *contiguity:
		violations := 0
		tagsB := m.TagsFor(src, c.labelB)
		if len(tagsB) == 0 {
			return 0
		}
		for _, a := range m.TagsFor(src, c.labelA) {
			for _, b := range tagsB {
				between, siblings := src.Schema.SiblingsBetween(a, b)
				if !siblings {
					violations++
					continue
				}
				for _, t := range between {
					if label, ok := m[t]; ok && label != learn.Other {
						violations++
					}
				}
			}
		}
		return float64(violations)
	case *exclusivity:
		if m.CountTagsFor(src, c.labelA) > 0 && m.CountTagsFor(src, c.labelB) > 0 {
			return 1
		}
		return 0
	case *key:
		violations := 0
		for _, tag := range m.TagsFor(src, c.label) {
			seen := make(map[string]bool, len(src.Columns[tag]))
			for _, v := range src.Columns[tag] {
				if v == "" {
					continue
				}
				if seen[v] {
					violations++
					break
				}
				seen[v] = true
			}
		}
		return float64(violations)
	case *functionalDep:
		detTags := make([]string, 0, len(c.determinants))
		for _, d := range c.determinants {
			tags := m.TagsFor(src, d)
			if len(tags) == 0 {
				return 0
			}
			detTags = append(detTags, tags[0])
		}
		depTags := m.TagsFor(src, c.dependent)
		if len(depTags) == 0 {
			return 0
		}
		dep := depTags[0]
		seen := make(map[string]string)
		for _, row := range src.Rows {
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
	case *proximity:
		var posA, posB []int
		for i, t := range src.Tags {
			label := m[t]
			if label == c.labelA {
				posA = append(posA, i)
			}
			if label == c.labelB {
				posB = append(posB, i)
			}
		}
		total := 0.0
		for _, a := range posA {
			for _, b := range posB {
				d := a - b
				if d < 0 {
					d = -d
				}
				if d > 1 && len(src.Tags) > 1 {
					total += float64(d-1) / float64(len(src.Tags)-1)
				}
			}
		}
		return total
	case *leafness:
		violations := 0
		for _, tag := range m.TagsFor(src, c.label) {
			if c.nonLeaf == src.Schema.IsLeaf(tag) {
				violations++
			}
		}
		return float64(violations)
	case *mustMatch:
		label, assigned := m[c.tag]
		if !assigned {
			return 0
		}
		if c.forbid {
			if label == c.label {
				return 1
			}
			return 0
		}
		if label != c.label {
			return 1
		}
		return 0
	}
	return c.Violations(src, m, complete)
}

// Cost evaluates Σ λᵢ·cost(m, Tᵢ) over the constraints by the map
// reference; math.Inf(1) if a hard constraint is violated.
func Cost(constraints []Constraint, src *Source, m Assignment, complete bool) float64 {
	total := 0.0
	for _, c := range constraints {
		v := refViolations(c, src, m, complete)
		if v <= 0 {
			continue
		}
		if c.Hard() {
			return math.Inf(1)
		}
		total += c.Weight() * v
	}
	return total
}

// softOnlyCost is Cost with the hard constraints left out.
func softOnlyCost(constraints []Constraint, src *Source, m Assignment) float64 {
	total := 0.0
	for _, c := range constraints {
		if c.Hard() {
			continue
		}
		total += c.Weight() * refViolations(c, src, m, true)
	}
	return total
}

// ProbCost returns −log prob(m) for the assigned tags, each score
// floored at ε, summed in sorted tag order.
func ProbCost(preds map[string]learn.Prediction, m Assignment) float64 {
	const eps = 1e-6
	tags := make([]string, 0, len(m))
	for tag := range m {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	cost := 0.0
	for _, tag := range tags {
		s := preds[tag].Score(m[tag])
		if s < eps {
			s = eps
		}
		cost -= math.Log(s)
	}
	return cost
}

// Violation describes one violated constraint for reporting.
type Violation struct {
	Constraint Constraint
	Degree     float64
}

// Explain lists the constraints m violates.
func Explain(constraints []Constraint, src *Source, m Assignment) []Violation {
	var out []Violation
	for _, c := range constraints {
		if v := refViolations(c, src, m, true); v > 0 {
			out = append(out, Violation{c, v})
		}
	}
	return out
}

func (v Violation) String() string {
	kind := "soft"
	if v.Constraint.Hard() {
		kind = "hard"
	}
	return fmt.Sprintf("%s (%s, degree %.2f)", v.Constraint.Name(), kind, v.Degree)
}
