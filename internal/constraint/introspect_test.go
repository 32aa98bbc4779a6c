package constraint

import (
	"reflect"
	"testing"
)

func TestDescribeBuiltins(t *testing.T) {
	cases := []struct {
		c    Constraint
		want Spec
	}{
		{ExactlyOne("PRICE"), Spec{Kind: KindFrequency, Hard: true, Labels: []string{"PRICE"}, Min: 1, Max: 1}},
		{AtMostOne("PRICE"), Spec{Kind: KindFrequency, Hard: true, Labels: []string{"PRICE"}, Min: 0, Max: 1}},
		{Frequency("BEDS", 2, -1), Spec{Kind: KindFrequency, Hard: true, Labels: []string{"BEDS"}, Min: 2, Max: -1}},
		{NestedIn("NAME", "FIRST"), Spec{Kind: KindNesting, Hard: true, Labels: []string{"NAME", "FIRST"}}},
		{NotNestedIn("NAME", "EMAIL"), Spec{Kind: KindNesting, Hard: true, Labels: []string{"NAME", "EMAIL"}, Forbid: true}},
		{Contiguous("BEDS", "BATHS"), Spec{Kind: KindContiguity, Hard: true, Labels: []string{"BEDS", "BATHS"}}},
		{Exclusive("A", "B"), Spec{Kind: KindExclusivity, Hard: true, Labels: []string{"A", "B"}}},
		{Key("MLS-ID"), Spec{Kind: KindKey, Hard: true, Labels: []string{"MLS-ID"}}},
		{FunctionalDep([]string{"CITY", "FIRM"}, "ADDR"), Spec{Kind: KindFunctionalDep, Hard: true, Labels: []string{"CITY", "FIRM", "ADDR"}}},
		{LeafLabel("PRICE"), Spec{Kind: KindLeafness, Hard: true, Labels: []string{"PRICE"}}},
		{NonLeafLabel("CONTACT"), Spec{Kind: KindLeafness, Hard: true, Labels: []string{"CONTACT"}, NonLeaf: true}},
		{MustMatch("ad-id", "HOUSE-ID"), Spec{Kind: KindMustMatch, Hard: true, Labels: []string{"HOUSE-ID"}, Tag: "ad-id"}},
		{MustNotMatch("ad-id", "HOUSE-ID"), Spec{Kind: KindMustMatch, Hard: true, Labels: []string{"HOUSE-ID"}, Tag: "ad-id", Forbid: true}},
		{Near("A", "B", 0.5), Spec{Kind: KindProximity, Labels: []string{"A", "B"}, Weight: 0.5}},
		{AtMostSoft("A", 2, 0.5), Spec{Kind: KindBinarySoft, Labels: []string{"A"}, Weight: 0.5}},
	}
	for _, tc := range cases {
		if got := Describe(tc.c); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Describe(%s) = %+v, want %+v", tc.c.Name(), got, tc.want)
		}
	}
}

// opaque is a user-defined constraint Describe cannot see inside.
type opaque struct{}

func (opaque) Name() string                                 { return "opaque" }
func (opaque) Hard() bool                                   { return true }
func (opaque) Weight() float64                              { return 1 }
func (opaque) Violations(*Source, Assignment, bool) float64 { return 0 }
func (opaque) Labels() []string                             { return []string{"X"} }

func TestDescribeOpaque(t *testing.T) {
	got := Describe(opaque{})
	if got.Kind != KindOpaque || !got.Hard || !reflect.DeepEqual(got.Labels, []string{"X"}) {
		t.Errorf("Describe(opaque) = %+v, want KindOpaque hard with labels [X]", got)
	}
}

// TestFromSpecRefusesEmptyLabel: no kind rebuilds a constraint naming
// the empty label, wherever the label sits.
func TestFromSpecRefusesEmptyLabel(t *testing.T) {
	for _, c := range []Constraint{
		ExactlyOne("A"), NestedIn("A", "B"), NotNestedIn("A", "B"), Contiguous("A", "B"),
		Exclusive("A", "B"), Key("A"), FunctionalDep([]string{"A", "B"}, "C"), LeafLabel("A"),
		NonLeafLabel("A"), MustMatch("t", "A"), MustNotMatch("t", "A"), Near("A", "B", 1),
	} {
		spec := Describe(c)
		for i := range spec.Labels {
			bad := spec
			bad.Labels = append([]string{}, spec.Labels...)
			bad.Labels[i] = ""
			if _, err := FromSpec(bad); err == nil {
				t.Errorf("FromSpec(%+v) accepted the empty label", bad)
			}
		}
		if _, err := FromSpec(spec); err != nil {
			t.Errorf("FromSpec(%+v): %v", spec, err)
		}
	}
}
