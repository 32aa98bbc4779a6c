package dtd

import (
	"reflect"
	"strings"
	"testing"
)

// paperDTD is the source schema from Figure 3.b of the paper.
const paperDTD = `
<!ELEMENT house-listing (location?, price, contact)>
<!ELEMENT location (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT contact (name, phone)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
`

func TestParsePaperSchema(t *testing.T) {
	s, err := Parse(paperDTD)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := s.Root(); got != "house-listing" {
		t.Errorf("Root = %q, want house-listing", got)
	}
	if got := s.NumTags(); got != 6 {
		t.Errorf("NumTags = %d, want 6", got)
	}
	if got := s.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	nonLeaf := s.NonLeafTags()
	want := []string{"house-listing", "contact"}
	if !reflect.DeepEqual(nonLeaf, want) {
		t.Errorf("NonLeafTags = %v, want %v", nonLeaf, want)
	}
}

func TestParseContentModels(t *testing.T) {
	cases := []struct {
		decl string
		str  string // round-tripped content model
	}{
		{"<!ELEMENT a (#PCDATA)>", "(#PCDATA)"},
		{"<!ELEMENT a EMPTY>", "EMPTY"},
		{"<!ELEMENT a ANY>", "ANY"},
		{"<!ELEMENT a (b)>", "(b)"},
		{"<!ELEMENT a (b, c)>", "(b, c)"},
		{"<!ELEMENT a (b | c)>", "(b | c)"},
		{"<!ELEMENT a (b?, c*, d+)>", "(b?, c*, d+)"},
		{"<!ELEMENT a ((b | c)+, d)>", "((b | c)+, d)"},
		{"<!ELEMENT a (#PCDATA | b | c)*>", "(#PCDATA | b | c)*"},
	}
	for _, c := range cases {
		s, err := Parse(c.decl)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.decl, err)
			continue
		}
		if got := s.Element("a").Model.String(); got != c.str {
			t.Errorf("Parse(%q).Model = %q, want %q", c.decl, got, c.str)
		}
	}
}

func TestParseAttlist(t *testing.T) {
	s, err := Parse(`
<!ELEMENT listing (price)>
<!ELEMENT price (#PCDATA)>
<!ATTLIST listing id CDATA #REQUIRED status CDATA "active">
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	e := s.Element("listing")
	if !reflect.DeepEqual(e.Attributes, []string{"id", "status"}) {
		t.Errorf("Attributes = %v", e.Attributes)
	}
	// Attributes count as tags and as children.
	if s.NumTags() != 4 {
		t.Errorf("NumTags = %d, want 4", s.NumTags())
	}
	children := s.ChildTags("listing")
	if !reflect.DeepEqual(children, []string{"id", "price", "status"}) {
		t.Errorf("ChildTags = %v", children)
	}
}

func TestParseComments(t *testing.T) {
	s, err := Parse(`
<!-- the mediated schema -->
<!ELEMENT a (b)> <!-- root -->
<!ELEMENT b (#PCDATA)>
`)
	if err != nil {
		t.Fatalf("Parse with comments: %v", err)
	}
	if s.NumTags() != 2 {
		t.Errorf("NumTags = %d, want 2", s.NumTags())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"<!ELEMENT a>",
		"<!ELEMENT a (b,>",
		"<!ELEMENT a (b | c, d)>", // mixed separators
		"<!ELEMENT a (b)> <!ELEMENT a (c)>",
		"<!ATTLIST ghost x CDATA #IMPLIED>",
		"<!WRONG a (b)>",
		"<!ELEMENT a (#PCDATA | b)>", // mixed must end )*
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestRootDetection(t *testing.T) {
	s := MustParse(`
<!ELEMENT leaf (#PCDATA)>
<!ELEMENT top (mid)>
<!ELEMENT mid (leaf)>
`)
	if got := s.Root(); got != "top" {
		t.Errorf("Root = %q, want top", got)
	}
}

func TestPathFromRoot(t *testing.T) {
	s := MustParse(paperDTD)
	got := s.PathFromRoot("phone")
	want := []string{"house-listing", "contact", "phone"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PathFromRoot(phone) = %v, want %v", got, want)
	}
	if s.PathFromRoot("missing") != nil {
		t.Error("PathFromRoot(missing) should be nil")
	}
	if got := s.PathFromRoot("house-listing"); len(got) != 1 {
		t.Errorf("PathFromRoot(root) = %v", got)
	}
}

func TestNestingRelations(t *testing.T) {
	s := MustParse(paperDTD)
	if !s.CanNest("house-listing", "phone") {
		t.Error("phone should nest in house-listing")
	}
	if !s.CanNest("contact", "name") {
		t.Error("name should nest in contact")
	}
	if s.CanNest("contact", "price") {
		t.Error("price should not nest in contact")
	}
	if s.Parent("phone") != "contact" {
		t.Errorf("Parent(phone) = %q", s.Parent("phone"))
	}
	if s.Parent("house-listing") != "" {
		t.Errorf("Parent(root) = %q, want empty", s.Parent("house-listing"))
	}
}

func TestSiblings(t *testing.T) {
	s := MustParse(paperDTD)
	if !s.Siblings("location", "contact") {
		t.Error("location and contact are siblings")
	}
	if s.Siblings("location", "phone") {
		t.Error("location and phone are not siblings")
	}
	between, ok := s.SiblingsBetween("location", "contact")
	if !ok || !reflect.DeepEqual(between, []string{"price"}) {
		t.Errorf("SiblingsBetween = %v, %v", between, ok)
	}
	if _, ok := s.SiblingsBetween("location", "phone"); ok {
		t.Error("SiblingsBetween across levels should fail")
	}
	// A contiguity constraint over one label pairs a tag with itself.
	if between, ok := s.SiblingsBetween("price", "price"); !ok || len(between) != 0 {
		t.Errorf("SiblingsBetween(price, price) = %v, %v; want none between, true", between, ok)
	}
}

func TestSchemaStringRoundTrip(t *testing.T) {
	s := MustParse(paperDTD)
	again, err := Parse(s.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(s.Tags(), again.Tags()) {
		t.Errorf("round trip tags: %v vs %v", s.Tags(), again.Tags())
	}
	if s.Depth() != again.Depth() || s.Root() != again.Root() {
		t.Error("round trip structure mismatch")
	}
}

func TestDepthWithCycle(t *testing.T) {
	// part contains part: depth must terminate.
	s := MustParse(`
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
`)
	if d := s.Depth(); d < 2 || d > 3 {
		t.Errorf("cyclic Depth = %d, want small finite value", d)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input did not panic")
		}
	}()
	MustParse("<!BAD>")
}

func TestParseWhitespaceTolerance(t *testing.T) {
	s, err := Parse("<!ELEMENT  a \n ( b ,\t c? ) >\n<!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>")
	if err != nil {
		t.Fatalf("Parse with odd whitespace: %v", err)
	}
	if got := s.Element("a").Model.String(); got != "(b, c?)" {
		t.Errorf("model = %q", got)
	}
}

func TestChildOrderPreserved(t *testing.T) {
	s := MustParse(`
<!ELEMENT r (z, a, m)>
<!ELEMENT z (#PCDATA)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT m (#PCDATA)>
`)
	between, ok := s.SiblingsBetween("z", "m")
	if !ok || !reflect.DeepEqual(between, []string{"a"}) {
		t.Errorf("SiblingsBetween(z,m) = %v, %v; want [a] true", between, ok)
	}
}

func TestTagsStable(t *testing.T) {
	s := MustParse(paperDTD)
	want := strings.Fields("house-listing location price contact name phone")
	if got := s.Tags(); !reflect.DeepEqual(got, want) {
		t.Errorf("Tags = %v, want declaration order %v", got, want)
	}
}

func TestChildOrder(t *testing.T) {
	s := MustParse(`
<!ELEMENT r (z, a, m)>
<!ELEMENT z (#PCDATA)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT m (#PCDATA)>
<!ATTLIST r id CDATA #IMPLIED>
`)
	got := s.ChildOrder("r")
	want := []string{"z", "a", "m", "id"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ChildOrder = %v, want %v", got, want)
	}
	if s.ChildOrder("z") != nil {
		t.Errorf("leaf ChildOrder = %v", s.ChildOrder("z"))
	}
	if s.ChildOrder("missing") != nil {
		t.Error("undeclared ChildOrder should be nil")
	}
}

func TestParseAttlistUndeclaredDeterministic(t *testing.T) {
	// Two ATTLISTs reference undeclared elements; the error must name
	// the first one in declaration order on every run, not an arbitrary
	// map-order pick.
	const src = `
<!ELEMENT r (#PCDATA)>
<!ATTLIST ghost1 a CDATA #IMPLIED>
<!ATTLIST ghost2 b CDATA #IMPLIED>
`
	want := `dtd: ATTLIST for undeclared element "ghost1"`
	for i := 0; i < 20; i++ {
		_, err := Parse(src)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: err = %v, want %s", i, err, want)
		}
	}
}

func TestParseRecordsDeclLines(t *testing.T) {
	s := MustParse(`<!ELEMENT r (a, (b | c)*)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
<!ATTLIST a id CDATA #IMPLIED>
`)
	if got := s.Element("r").Line; got != 1 {
		t.Errorf("r.Line = %d, want 1", got)
	}
	if got := s.Element("b").Line; got != 3 {
		t.Errorf("b.Line = %d, want 3", got)
	}
	if got := s.Element("a").AttlistLine; got != 5 {
		t.Errorf("a.AttlistLine = %d, want 5", got)
	}
	model := s.Element("r").Model.Particle
	if model.Line != 1 || model.Children[0].Line != 1 || model.Children[1].Line != 1 {
		t.Errorf("particle lines = %d, %d, %d; want all 1",
			model.Line, model.Children[0].Line, model.Children[1].Line)
	}
	decls := s.Decls()
	if len(decls) != 4 || decls[0].Name != "r" || decls[3].Name != "c" {
		t.Errorf("Decls order wrong: %v", decls)
	}
}

// TestParseKeepsInnerOccurs pins the wrap-don't-overwrite rule for
// one-member groups whose child carries its own occurrence marker:
// ((a|b)+)? is (a|b)*, not (a|b)?, so the inner + must survive under
// an outer wrapper rather than being clobbered by the outer marker.
func TestParseKeepsInnerOccurs(t *testing.T) {
	cases := []struct {
		model string
		want  string
	}{
		{"((a | b)+)", "(a | b)+"},
		{"((a | b)+)?", "((a | b)+)?"},
		{"((a, b)*)+", "((a, b)*)+"},
		{"(a?)*", "(a?)*"},
	}
	for _, tc := range cases {
		s, err := Parse("<!ELEMENT r " + tc.model + ">\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>\n")
		if err != nil {
			t.Fatalf("%s: %v", tc.model, err)
		}
		if got := s.Element("r").Model.String(); got != tc.want {
			t.Errorf("model %s parsed as %s, want %s", tc.model, got, tc.want)
		}
	}
}
