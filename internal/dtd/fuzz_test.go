package dtd

import (
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// FuzzParse checks that the DTD parser never panics and that anything
// it accepts can be rendered and re-parsed to the same tag set.
func FuzzParse(f *testing.F) {
	f.Add("<!ELEMENT a (#PCDATA)>")
	f.Add(paperDTD)
	f.Add("<!ELEMENT a (b?, (c | d)+)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>\n<!ELEMENT d (#PCDATA)>")
	f.Add("<!ELEMENT a EMPTY><!ATTLIST a x CDATA #IMPLIED>")
	f.Add("<!-- comment --><!ELEMENT a ANY>")
	f.Add("<!ELEMENT a (#PCDATA | b)*><!ELEMENT b (#PCDATA)>")
	f.Add("<!ELEMENT")
	f.Add(strings.Repeat("(", 100))
	// Nested groups mixing choice, sequence, and every repetition
	// marker; the matcher's backtracking is most fragile here.
	f.Add("<!ELEMENT a ((b, c)* | (d?, (e | f)+))>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>\n<!ELEMENT d (#PCDATA)>\n<!ELEMENT e (#PCDATA)>\n<!ELEMENT f (#PCDATA)>")
	f.Add("<!ELEMENT a (((b)))>\n<!ELEMENT b EMPTY>")
	f.Add("<!ELEMENT a (b | b | b)*><!ELEMENT b (#PCDATA)>")
	// Mixed content with attributes on several elements.
	f.Add("<!ELEMENT r (#PCDATA | a | b)*>\n<!ELEMENT a (#PCDATA)>\n<!ATTLIST a href CDATA #IMPLIED id CDATA #IMPLIED>\n<!ELEMENT b EMPTY>\n<!ATTLIST b x CDATA #IMPLIED>")
	// Self-reference and mutual recursion: Depth/PathFromRoot must not
	// loop forever on cyclic schemas.
	f.Add("<!ELEMENT a (a?)>")
	f.Add("<!ELEMENT a (b)><!ELEMENT b (a?)>")
	// Malformed declarations the parser must reject without panicking.
	f.Add("<!ELEMENT a>")
	f.Add("<!ELEMENT a ()>")
	f.Add("<!ELEMENT a (b,)>")
	f.Add("<!ELEMENT a (|b)>")
	f.Add("<!ELEMENT a (#PCDATA) extra>")
	f.Add("<!ATTLIST ghost x CDATA #IMPLIED>")
	f.Add("<!ELEMENT \x00 (#PCDATA)>")
	f.Add("<!ELEMENT a (#PCDATA)><!ELEMENT a (#PCDATA)>")
	f.Add("<!ELEMENT a (b))>")
	f.Add(strings.Repeat("<!ELEMENT a (b", 30))

	f.Fuzz(func(t *testing.T, input string) {
		s, err := Parse(input)
		if err != nil {
			return
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("accepted DTD failed to re-parse: %v\n%s", err, s)
		}
		a, b := s.Tags(), again.Tags()
		if len(a) != len(b) {
			t.Fatalf("round trip changed tag count: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round trip changed tags: %v vs %v", a, b)
			}
		}
		// IsLeaf answers from the content model; it must agree with
		// the child set ChildTags builds, for every tag.
		for _, tag := range a {
			if got, want := s.IsLeaf(tag), len(s.ChildTags(tag)) == 0; got != want {
				t.Fatalf("IsLeaf(%q) = %v, want %v (children %v)", tag, got, want, s.ChildTags(tag))
			}
		}
		// The sibling-order index must answer like the scan it replaces.
		checkSiblingIndex(t, s)
	})
}

// FuzzValidate feeds arbitrary DTD/document pairs through the
// validator: whatever the two parsers accept, Validate must classify
// without panicking or looping, and the schema-tree queries the
// pipeline leans on must stay total.
func FuzzValidate(f *testing.F) {
	f.Add("<!ELEMENT a (b*)>\n<!ELEMENT b (#PCDATA)>", "<a><b>x</b><b>y</b></a>")
	f.Add("<!ELEMENT a (b, c)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>", "<a><c>x</c></a>")
	f.Add("<!ELEMENT a (#PCDATA | b)*>\n<!ELEMENT b EMPTY>", "<a>text<b></b>more</a>")
	f.Add("<!ELEMENT a EMPTY><!ATTLIST a x CDATA #IMPLIED>", "<a x=\"1\"></a>")
	f.Add("<!ELEMENT a (a?)>", "<a><a><a></a></a></a>")
	f.Add("<!ELEMENT a ((b | c)+)>\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>", "<a><b>1</b><c>2</c><b>3</b></a>")
	f.Add("<!ELEMENT a (b?)>\n<!ELEMENT b (#PCDATA)>", "<wrong></wrong>")
	f.Add("<!ELEMENT a ANY>", "<a><unknown><deep>x</deep></unknown></a>")

	f.Fuzz(func(t *testing.T, dtdText, xmlText string) {
		s, err := Parse(dtdText)
		if err != nil {
			return
		}
		doc, err := xmltree.ParseString(xmlText)
		if err != nil || doc == nil {
			return
		}
		// Validate must terminate and never panic, valid or not.
		_ = s.Validate(doc)
		// The schema-tree queries must be total on anything Parse accepts.
		root := s.Root()
		_ = s.Depth()
		for _, tag := range s.Tags() {
			_ = s.PathFromRoot(tag)
			_ = s.IsLeaf(tag)
			_ = s.CanNest(root, tag)
		}
	})
}
