package xmltree_test

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// listingsBody serializes listings back to back, as a /v1/match request
// carries them.
func listingsBody(listings []*xmltree.Node) string {
	var b strings.Builder
	for _, l := range listings {
		b.WriteString(l.String())
	}
	return b.String()
}

// preorderJoin is Content's definition: the non-empty texts of the
// subtree, in pre-order, joined with single spaces.
func preorderJoin(n *xmltree.Node) string {
	var parts []string
	n.Walk(func(m *xmltree.Node, _ []string) {
		if m.Text != "" {
			parts = append(parts, m.Text)
		}
	})
	return strings.Join(parts, " ")
}

// TestContentMatchesPreorderJoin checks Content, leaf fast path
// included, against its definition on every node of every listing of
// every source in the four domains, as parsed back from the serialized
// listings, and on leaves with empty text.
func TestContentMatchesPreorderJoin(t *testing.T) {
	check := func(root *xmltree.Node) {
		root.Walk(func(n *xmltree.Node, path []string) {
			if got, want := n.Content(), preorderJoin(n); got != want {
				t.Fatalf("%s: Content() = %q, want %q", strings.Join(path, "/"), got, want)
			}
		})
	}
	for _, d := range datagen.Domains() {
		for _, spec := range d.Sources() {
			listings, err := xmltree.ParseAll(strings.NewReader(listingsBody(spec.Generate(20, 1).Listings)))
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			for _, l := range listings {
				check(l)
			}
		}
	}
	empty, err := xmltree.ParseString(`<a><b/><c> </c><d x=""/><e>1<f/></e></a>`)
	if err != nil {
		t.Fatal(err)
	}
	check(empty)
	check(xmltree.New("leaf", ""))
}

// BenchmarkParseListings parses one serialized 20-listing source-4 body
// per domain, the request body servebench posts.
func BenchmarkParseListings(b *testing.B) {
	for _, d := range []*datagen.Domain{datagen.RealEstateI(), datagen.RealEstateII()} {
		body := listingsBody(d.Sources()[3].Generate(20, 1).Listings)
		b.Run(strings.ReplaceAll(d.Name, " ", ""), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := xmltree.ParseAll(strings.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
