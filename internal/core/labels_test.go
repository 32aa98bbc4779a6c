package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/xmltree"
)

// synonymMediated is tinyMediated with synonym lists for the words of
// greathomes.com's work-phone tag, so that its element instances carry
// synonyms.
func synonymMediated() *Mediated {
	med := tinyMediated()
	med.Synonyms = map[string][]string{
		"work":  {"office", "business"},
		"phone": {"telephone"},
	}
	return med
}

// fingerprint renders a match's mapping and the bits of every score.
func fingerprint(sys *System, res *MatchResult) string {
	tags := make([]string, 0, len(res.TagPredictions))
	for tag := range res.TagPredictions {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	var b strings.Builder
	for _, tag := range tags {
		fmt.Fprintf(&b, "%s -> %s\n", tag, res.Mapping[tag])
		for _, label := range sys.Labels() {
			fmt.Fprintf(&b, "  %s=%x\n", label, math.Float64bits(res.TagPredictions[tag].Score(label)))
		}
	}
	return b.String()
}

// source parses a source for the tests below; nil when either text
// fails to parse.
func source(name, dtdText, xmlText string) *Source {
	schema, err := dtd.Parse(dtdText)
	if err != nil {
		return nil
	}
	listings, err := xmltree.ParseAll(strings.NewReader(xmlText))
	if err != nil {
		return nil
	}
	return &Source{Name: name, Schema: schema, Listings: listings}
}

const greatHomesDTD = `<!ELEMENT gh-item (area, extra-info, work-phone)>
<!ELEMENT area (#PCDATA)>
<!ELEMENT extra-info (#PCDATA)>
<!ELEMENT work-phone (#PCDATA)>
`

// Two greathomes.com sources under one DTD: noPhone's listings carry no
// work-phone, so that tag is matched on its name alone; emptyPhone's
// carry empty work-phone leaves, whose instances have the same tag,
// path and content as the name-only one, but synonyms too.
const (
	noPhoneXML = `<gh-item><area>Kent, WA</area><extra-info>Close to highway, fantastic price</extra-info></gh-item>
<gh-item><area>Orlando, FL</area><extra-info>Spacious house, great beach nearby</extra-info></gh-item>`
	emptyPhoneXML = `<gh-item><area>Portland, OR</area><extra-info>Great location</extra-info><work-phone/></gh-item>
<gh-item><area>Salem, OR</area><extra-info>Beautiful street</extra-info><work-phone></work-phone></gh-item>`
)

// TestNameOnlyKeyDeterministic: a name-only instance and an empty leaf
// with the same tag and path are different instances, since only the
// leaf carries synonyms, so the memo must not serve one the other's
// prediction. Matching the source without work-phone data first must
// not change the match of the source with empty work-phone leaves.
func TestNameOnlyKeyDeterministic(t *testing.T) {
	ctx := context.Background()
	sys, err := Train(synonymMediated(), tinySources(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Train(synonymMediated(), tinySources(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	noPhone := source("no-phone", greatHomesDTD, noPhoneXML)
	emptyPhone := source("empty-phone", greatHomesDTD, emptyPhoneXML)
	refRes, err := ref.MatchReference(ctx, emptyPhone)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(ref, refRes)
	if _, err := sys.Match(ctx, noPhone); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Match(ctx, emptyPhone)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(sys, res); got != want {
		t.Errorf("match after a name-only work-phone differs from the reference\nreference:\n%s\ngot:\n%s", want, got)
	}
}

// FuzzMatchMatchesReference holds Match to the per-instance reference
// on inputs no domain generator makes. An input is a source DTD and two
// listing texts under it. A fresh system matches the first source and
// then the second, whose result must equal the reference's bit for
// bit: whatever the first match left in the memo, and whatever the
// nesting or the undeclared elements of either. Inputs that fail to
// parse are skipped. The reference labels every sub-element of every
// instance on its own, so its cost grows with the cube of the nesting
// depth, and inputs are capped at 1 KB.
func FuzzMatchMatchesReference(f *testing.F) {
	f.Add(greatHomesDTD, noPhoneXML, emptyPhoneXML)
	f.Add(greatHomesDTD, "",
		`<gh-item><area>Kent, WA</area><note>(415) 273 1234</note></gh-item>`)
	f.Add(`<!ELEMENT a (#PCDATA | a)*>`, "",
		strings.Repeat("<a>x", 50)+strings.Repeat("</a>", 50))
	listing := `<gh-item><area>Portland, OR</area><extra-info>Great location, beautiful street</extra-info><work-phone>(515) 237 4244</work-phone></gh-item>`
	f.Add(greatHomesDTD, listing, listing+"\n"+
		`<gh-item><area>Kent, WA</area><extra-info>Close to highway</extra-info><work-phone>(415) 273 1234</work-phone></gh-item>`)

	sys, err := Train(synonymMediated(), tinySources(), DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	st := sys.State()
	f.Fuzz(func(t *testing.T, dtdText, xml1, xml2 string) {
		if len(dtdText)+len(xml1)+len(xml2) > 1024 {
			t.Skip("input over 1 KB")
		}
		first := source("first", dtdText, xml1)
		second := source("second", dtdText, xml2)
		if first == nil || second == nil {
			t.Skip("input does not parse")
		}
		ctx := context.Background()
		fresh, err := FromState(st, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Match(ctx, first); err != nil {
			t.Fatalf("first Match: %v", err)
		}
		res, err := fresh.Match(ctx, second)
		refRes, refErr := sys.MatchReference(ctx, second)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Match error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got, want := fingerprint(fresh, res), fingerprint(sys, refRes); got != want {
			t.Errorf("second match differs from the reference\nreference:\n%s\ngot:\n%s", want, got)
		}
	})
}
