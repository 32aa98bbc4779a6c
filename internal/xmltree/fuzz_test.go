package xmltree

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseString checks the XML parser never panics and that accepted
// documents survive a String → Parse round trip.
func FuzzParseString(f *testing.F) {
	f.Add("<a><b>hi</b></a>")
	f.Add(houseListing)
	f.Add(`<listing id="42"><price currency="USD">70000</price></listing>`)
	f.Add("<a>&lt;escaped&gt;</a>")
	f.Add("<a")
	f.Add("<a></b>")
	f.Add("<a><a><a></a></a></a>")

	f.Fuzz(func(t *testing.T, input string) {
		n, err := ParseString(input)
		if err != nil {
			return
		}
		again, err := ParseString(n.String())
		if err != nil {
			t.Fatalf("accepted doc failed to re-parse: %v\n%s", err, n)
		}
		if !equal(n, again) {
			t.Fatalf("round trip changed tree:\n%s\nvs\n%s", n, again)
		}
	})
}

// FuzzParseMatchesReference holds the scanner to the encoding/xml token
// loop it replaced (reference_test.go): on any input, ParseString and
// ParseAll must accept exactly when the reference does, and build
// reflect.DeepEqual trees.
func FuzzParseMatchesReference(f *testing.F) {
	for _, c := range scannerCases {
		f.Add(c.in)
	}
	f.Add(houseListing)
	f.Add(houseListing + houseListing)

	f.Fuzz(func(t *testing.T, input string) {
		checkAgainstReference(t, input)
	})
}

// checkAgainstReference compares the scanner with the reference on input,
// as a document and as a stream of listings.
func checkAgainstReference(t *testing.T, input string) {
	t.Helper()
	got, err := ParseString(input)
	want, wantErr := referenceParseString(input)
	compareParse(t, "ParseString", input, got, err, want, wantErr)

	gotAll, err := ParseAll(strings.NewReader(input))
	wantAll, wantErr := referenceParseAll(strings.NewReader(input))
	compareParse(t, "ParseAll", input, gotAll, err, wantAll, wantErr)
}

func compareParse(t *testing.T, fn, input string, got any, err error, want any, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s(%q): error %v, reference error %v", fn, input, err, wantErr)
	case err != nil && !strings.HasPrefix(err.Error(), "xmltree: line "):
		t.Fatalf("%s(%q): error %q does not name its line", fn, input, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s(%q): tree differs from the reference:\n%v\nvs\n%v", fn, input, got, want)
	}
}
