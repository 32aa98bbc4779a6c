package constraint

import "fmt"

// Structured introspection for static analysis. The Constraint
// interface deliberately exposes only what the A* handler needs
// (Violations, Labels, hardness); the schema/constraint checker in
// internal/schemacheck needs to see *inside* the built-in constraint
// kinds — frequency bounds, nesting direction, feedback tags — to
// detect contradictions and unsatisfiable sets before any source is
// matched. Describe projects a constraint onto that structured view.

// Kind identifies a built-in constraint shape for introspection.
type Kind int

const (
	// KindOpaque marks a constraint Describe cannot see inside
	// (user-defined implementations); only Labels/Hard are meaningful.
	KindOpaque Kind = iota
	// KindFrequency is AtMostOne/ExactlyOne/Frequency.
	KindFrequency
	// KindNesting is NestedIn/NotNestedIn.
	KindNesting
	// KindContiguity is Contiguous.
	KindContiguity
	// KindExclusivity is Exclusive.
	KindExclusivity
	// KindKey is Key.
	KindKey
	// KindFunctionalDep is FunctionalDep.
	KindFunctionalDep
	// KindLeafness is LeafLabel/NonLeafLabel.
	KindLeafness
	// KindMustMatch is the MustMatch/MustNotMatch feedback pair.
	KindMustMatch
	// KindBinarySoft is BinarySoft (including AtMostSoft).
	KindBinarySoft
	// KindProximity is Near.
	KindProximity
)

// Spec is the structured description of one constraint.
type Spec struct {
	// Kind classifies the constraint; KindOpaque when unknown.
	Kind Kind
	// Hard mirrors Constraint.Hard.
	Hard bool
	// Labels are the mediated labels the constraint mentions, in
	// declaration order. Unlike Constraint.Labels (which returns nil
	// for constraints that must be re-evaluated on any assignment,
	// e.g. contiguity and feedback), this always lists the labels
	// actually named, so the checker can validate them against the
	// mediated schema.
	Labels []string
	// Tag is the source tag a feedback constraint pins; "" otherwise.
	Tag string
	// Min and Max are the frequency bounds (Max < 0 means unbounded);
	// meaningful only for KindFrequency.
	Min, Max int
	// Forbid distinguishes NotNestedIn from NestedIn and MustNotMatch
	// from MustMatch.
	Forbid bool
	// NonLeaf distinguishes NonLeafLabel from LeafLabel.
	NonLeaf bool
	// Weight is the soft-constraint weight; meaningful only for
	// KindProximity and KindBinarySoft (hard constraints always weigh 1).
	Weight float64
}

// Describe returns the structured view of c. Constraints built outside
// this package come back as KindOpaque with their advertised Labels.
func Describe(c Constraint) Spec {
	switch v := c.(type) {
	case *frequency:
		return Spec{Kind: KindFrequency, Hard: true, Labels: []string{v.label}, Min: v.min, Max: v.max}
	case *nesting:
		return Spec{Kind: KindNesting, Hard: true, Labels: []string{v.outer, v.inner}, Forbid: v.forbid}
	case *contiguity:
		return Spec{Kind: KindContiguity, Hard: true, Labels: []string{v.labelA, v.labelB}}
	case *exclusivity:
		return Spec{Kind: KindExclusivity, Hard: true, Labels: []string{v.labelA, v.labelB}}
	case *key:
		return Spec{Kind: KindKey, Hard: true, Labels: []string{v.label}}
	case *functionalDep:
		labels := append(append([]string{}, v.determinants...), v.dependent)
		return Spec{Kind: KindFunctionalDep, Hard: true, Labels: labels}
	case *leafness:
		return Spec{Kind: KindLeafness, Hard: true, Labels: []string{v.label}, NonLeaf: v.nonLeaf}
	case *mustMatch:
		return Spec{Kind: KindMustMatch, Hard: true, Labels: []string{v.label}, Tag: v.tag, Forbid: v.forbid}
	case *binarySoft:
		return Spec{Kind: KindBinarySoft, Labels: append([]string{}, v.labels...), Weight: v.weight}
	case *proximity:
		return Spec{Kind: KindProximity, Labels: []string{v.labelA, v.labelB}, Weight: v.weight}
	default:
		return Spec{Kind: KindOpaque, Hard: c.Hard(), Labels: append([]string{}, c.Labels()...)}
	}
}

// FromSpec rebuilds the constraint a Spec describes, inverting
// Describe for every kind whose behaviour is pure data. It is how
// model artifacts carry a mediated schema's constraint set: each
// constraint is saved as its Spec and reconstructed on load.
//
// Two kinds cannot come back: KindOpaque (user-defined implementations
// the package cannot see inside) and KindBinarySoft (its violation
// predicate is an arbitrary closure). Both return an error; callers
// decide whether a lossy save is acceptable. A spec naming the empty
// label is refused too: the handler would refuse the constraint.
func FromSpec(s Spec) (Constraint, error) {
	for _, l := range s.Labels {
		if l == "" {
			return nil, fmt.Errorf("constraint: spec kind %d names the empty label", s.Kind)
		}
	}
	need := func(n int) error {
		if len(s.Labels) != n {
			return fmt.Errorf("constraint: spec kind %d wants %d labels, has %d", s.Kind, n, len(s.Labels))
		}
		return nil
	}
	switch s.Kind {
	case KindFrequency:
		if err := need(1); err != nil {
			return nil, err
		}
		return Frequency(s.Labels[0], s.Min, s.Max), nil
	case KindNesting:
		if err := need(2); err != nil {
			return nil, err
		}
		if s.Forbid {
			return NotNestedIn(s.Labels[0], s.Labels[1]), nil
		}
		return NestedIn(s.Labels[0], s.Labels[1]), nil
	case KindContiguity:
		if err := need(2); err != nil {
			return nil, err
		}
		return Contiguous(s.Labels[0], s.Labels[1]), nil
	case KindExclusivity:
		if err := need(2); err != nil {
			return nil, err
		}
		return Exclusive(s.Labels[0], s.Labels[1]), nil
	case KindKey:
		if err := need(1); err != nil {
			return nil, err
		}
		return Key(s.Labels[0]), nil
	case KindFunctionalDep:
		if len(s.Labels) < 2 {
			return nil, fmt.Errorf("constraint: functional-dep spec wants >= 2 labels, has %d", len(s.Labels))
		}
		dets := append([]string{}, s.Labels[:len(s.Labels)-1]...)
		return FunctionalDep(dets, s.Labels[len(s.Labels)-1]), nil
	case KindLeafness:
		if err := need(1); err != nil {
			return nil, err
		}
		if s.NonLeaf {
			return NonLeafLabel(s.Labels[0]), nil
		}
		return LeafLabel(s.Labels[0]), nil
	case KindMustMatch:
		if err := need(1); err != nil {
			return nil, err
		}
		if s.Tag == "" {
			return nil, fmt.Errorf("constraint: feedback spec missing tag")
		}
		if s.Forbid {
			return MustNotMatch(s.Tag, s.Labels[0]), nil
		}
		return MustMatch(s.Tag, s.Labels[0]), nil
	case KindProximity:
		if err := need(2); err != nil {
			return nil, err
		}
		return Near(s.Labels[0], s.Labels[1], s.Weight), nil
	default:
		return nil, fmt.Errorf("constraint: spec kind %d is not reconstructible", s.Kind)
	}
}
