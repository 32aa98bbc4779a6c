package dtd

import (
	"reflect"
	"sort"
	"sync"
	"testing"
)

// The scan reference for the sibling-order index: SiblingsBetween and
// Siblings as they were before the index, rebuilding every
// declaration's child order (or child set) on each call.

// scanSiblingsBetween walks the declarations in order and answers from
// the first one whose child order lists both tags.
func scanSiblingsBetween(s *Schema, a, b string) ([]string, bool) {
	indexOf := func(xs []string, x string) int {
		for i, v := range xs {
			if v == x {
				return i
			}
		}
		return -1
	}
	for _, name := range s.order {
		order := childOrder(s.elements[name])
		ia, ib := indexOf(order, a), indexOf(order, b)
		if ia < 0 || ib < 0 {
			continue
		}
		if ia > ib {
			ia, ib = ib, ia
		}
		if ia == ib {
			return []string{}, true
		}
		return append([]string{}, order[ia+1:ib]...), true
	}
	return nil, false
}

// scanSiblings reports whether some declaration's child set holds both
// tags.
func scanSiblings(s *Schema, a, b string) bool {
	for _, name := range s.order {
		hasA, hasB := false, false
		for _, c := range s.ChildTags(name) {
			if c == a {
				hasA = true
			}
			if c == b {
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// siblingQueryTags returns the names worth asking the index about: the
// schema's tags (attribute pseudo-tags included), every name a content
// model references (declared or not), and one name nothing mentions.
func siblingQueryTags(s *Schema) []string {
	set := map[string]bool{"no-such-tag": true}
	for _, t := range s.Tags() {
		set[t] = true
	}
	for _, name := range s.order {
		for _, c := range childOrder(s.elements[name]) {
			set[c] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// checkSiblingIndex requires the index to answer SiblingsBetween and
// Siblings like the scan reference for every ordered pair of query
// tags, a tag with itself included.
func checkSiblingIndex(t testing.TB, s *Schema) {
	t.Helper()
	tags := siblingQueryTags(s)
	for _, a := range tags {
		for _, b := range tags {
			got, ok := s.SiblingsBetween(a, b)
			want, wantOK := scanSiblingsBetween(s, a, b)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("SiblingsBetween(%q, %q) = %q, %v; scan gives %q, %v", a, b, got, ok, want, wantOK)
			}
			if got, want := s.Siblings(a, b), scanSiblings(s, a, b); got != want {
				t.Fatalf("Siblings(%q, %q) = %v; scan gives %v", a, b, got, want)
			}
		}
	}
}

func TestSiblingIndexMatchesScan(t *testing.T) {
	for _, text := range []string{
		paperDTD,
		"<!ELEMENT r (#PCDATA | a | b | a)*>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b EMPTY>\n<!ATTLIST b a CDATA #IMPLIED>",
		"<!ELEMENT r (a, (b | c)*, a?, ghost)>\n<!ELEMENT a (b, c)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>\n<!ATTLIST a c CDATA #IMPLIED id CDATA #IMPLIED>",
		"<!ELEMENT a (a?)>",
	} {
		checkSiblingIndex(t, MustParse(text))
	}
}

// TestSiblingIndexSeesDeclare: an element declared after a sibling
// query is seen by the next query.
func TestSiblingIndexSeesDeclare(t *testing.T) {
	s := MustParse("<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>")
	if _, ok := s.SiblingsBetween("a", "c"); ok {
		t.Fatal("a and c are not siblings yet")
	}
	seq := &Particle{Kind: SeqParticle, Children: []*Particle{
		{Kind: NameParticle, Name: "c"}, {Kind: NameParticle, Name: "x"}, {Kind: NameParticle, Name: "a"},
	}}
	if err := s.Declare(&Element{Name: "q", Model: &ContentModel{Kind: ElementContent, Particle: seq}}); err != nil {
		t.Fatal(err)
	}
	between, ok := s.SiblingsBetween("a", "c")
	if !ok || !reflect.DeepEqual(between, []string{"x"}) {
		t.Errorf("after Declare, SiblingsBetween(a, c) = %v, %v; want [x] true", between, ok)
	}
	if !s.Siblings("c", "x") {
		t.Error("after Declare, c and x are siblings")
	}
	checkSiblingIndex(t, s)
}

// TestSiblingIndexAttlistAfterElement: Parse attaches ATTLIST
// attributes after declaring every element, and they are siblings of
// the element's children in the index.
func TestSiblingIndexAttlistAfterElement(t *testing.T) {
	s := MustParse("<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>\n<!ATTLIST r id CDATA #IMPLIED lang CDATA #IMPLIED>")
	between, ok := s.SiblingsBetween("a", "lang")
	if !ok || !reflect.DeepEqual(between, []string{"b", "id"}) {
		t.Errorf("SiblingsBetween(a, lang) = %v, %v; want [b id] true", between, ok)
	}
	if between, ok := s.SiblingsBetween("id", "b"); !ok || len(between) != 0 {
		t.Errorf("SiblingsBetween(id, b) = %v, %v; want none between, true", between, ok)
	}
}

// TestSiblingIndexConcurrentReaders: readers racing to build the index
// of one schema all get the scan's answers (run under -race).
func TestSiblingIndexConcurrentReaders(t *testing.T) {
	s := MustParse(paperDTD)
	tags := siblingQueryTags(s)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range tags {
				for _, b := range tags {
					got, ok := s.SiblingsBetween(a, b)
					want, wantOK := scanSiblingsBetween(s, a, b)
					if ok != wantOK || !reflect.DeepEqual(got, want) || s.Siblings(a, b) != wantOK {
						errs <- a + "/" + b
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent reader disagreed with the scan on %s", e)
	}
}
