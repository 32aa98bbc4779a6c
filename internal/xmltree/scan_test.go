package xmltree

import (
	"strings"
	"testing"
)

// scannerCases holds one or more inputs per rule of the language the
// scanner accepts (DESIGN.md, "XML listings scanner"). ok is whether
// ParseString accepts the input; ParseAll accepts it too, and also when
// stream is set. Every case is also compared with the reference parser.
var scannerCases = []struct {
	name   string
	in     string
	ok     bool
	stream bool // ParseAll accepts although ParseString does not
}{
	// Names.
	{name: "prefixed name keeps its local part", in: `<p:a q:b="1"></p:a>`, ok: true},
	{name: "leading colon is part of the tag", in: `<:a></:a>`, ok: true},
	{name: "trailing colon is part of the tag", in: `<a:></a:>`, ok: true},
	{name: "two colons", in: `<a:b:c></a:b:c>`},
	{name: "end tag repeats the raw name", in: `<a:b></c:b>`},
	{name: "end tag with another name", in: `<a></b>`},
	{name: "end tag with space before >", in: "<a></a \n>", ok: true},
	{name: "name starts with a digit", in: `<1a></1a>`},
	{name: "name starts with a dot", in: `<.a></.a>`},
	{name: "valid non-ASCII names", in: `<über x="y"><né>1</né></über>`, ok: true},
	{name: "valid non-ASCII names in a stream", in: `<prix>1</prix><über é="y"/>`, stream: true},
	{name: "invalid non-ASCII name", in: "<a\u00d7b></a\u00d7b>"},
	{name: "non-ASCII name with invalid UTF-8", in: "<a\xffb></a\xffb>"},
	{name: "space after <", in: `< a></a>`},

	// Character data.
	{name: "predefined entities", in: `<a>&lt;&gt;&amp;&apos;&quot;</a>`, ok: true},
	{name: "decimal and hex references", in: `<a>&#65;&#x42;&#x6a;&#x6A;&#0000067;</a>`, ok: true},
	{name: "upper-case X", in: `<a>&#X41;</a>`},
	{name: "surrogate becomes U+FFFD", in: `<a>&#xD800;</a>`, ok: true},
	{name: "reference to U+0000", in: `<a>&#0;</a>`},
	{name: "reference to U+FFFE", in: `<a>&#xFFFE;</a>`},
	{name: "reference past U+10FFFF", in: `<a>&#x110000;</a>`},
	{name: "reference that overflows", in: `<a>&#99999999999999999999999;</a>`},
	{name: "empty reference", in: `<a>&#;</a>`},
	{name: "unknown entity", in: `<a>&foo;</a>`},
	{name: "entity without ;", in: `<a>&amp</a>`},
	{name: "bare ampersand", in: `<a>x & y</a>`},
	{name: "]]> in text", in: `<a>x]]>y</a>`},
	{name: "]]> in an attribute value", in: `<a b="]]>"/>`, ok: true},
	{name: "]] then >", in: `<a>]]</a>`, ok: true},
	{name: "CR LF and lone CR in text", in: "<a>x\r\ny\rz\r\r\n</a>", ok: true},
	{name: "CR LF in an attribute value", in: "<a b=\"x\r\ny\rz\"/>", ok: true},
	{name: "referenced CR is kept", in: `<a>x&#13;y</a>`, ok: true},
	{name: "invalid UTF-8 in text", in: "<a>x\xc3y</a>"},
	{name: "invalid UTF-8 in an attribute value", in: "<a b=\"\xff\"/>"},
	{name: "control character", in: "<a>x\x01y</a>"},
	{name: "NUL in text", in: "<a>x\x00y</a>"},
	{name: "U+FFFE in text", in: "<a>\xef\xbf\xbe</a>"},
	{name: "U+FFFD in text", in: "<a>\ufffd</a>", ok: true},
	{name: "top-level text is checked", in: "<a/>\x01"},
	{name: "top-level ]]> is an error", in: "<a/>]]>"},

	// Text runs.
	{name: "runs split by CDATA, comment and PI", in: `<a>x<![CDATA[y]]><!--c-->z<?p q?>w</a>`, ok: true},
	{name: "CDATA keeps markup characters", in: `<a><![CDATA[<b>&amp;]]]]></a>`, ok: true},
	{name: "CR LF in CDATA", in: "<a><![CDATA[x\r\ny\r]]></a>", ok: true},
	{name: "unterminated CDATA", in: `<a><![CDATA[x</a>`},
	{name: "bad CDATA opener", in: `<a><![CDATX[x]]></a>`},
	{name: "runs joined around children", in: `<a> x <b>1</b> y </a>`, ok: true},
	{name: "U+00A0 is trimmed", in: "<a>\u00a0x\u00a0</a>", ok: true},
	{name: "leading BOM", in: "\ufeff<a>x</a>", ok: true},
	{name: "BOM inside text is kept", in: "<a>\ufeffx</a>", ok: true},

	// Attributes.
	{name: "attributes before children", in: `<a x="1" y='2'><b/></a>`, ok: true},
	{name: "empty attribute value", in: `<a x=""/>`, ok: true},
	{name: "attribute value is not trimmed", in: `<a x="  1 "/>`, ok: true},
	{name: "attributes without space between", in: `<a b="1"c="2"/>`, ok: true},
	{name: "space around =", in: "<a b \n=\t'1'/>", ok: true},
	{name: "unquoted attribute", in: `<a b=1/>`},
	{name: "attribute without =", in: `<a b/>`},
	{name: "< in an attribute value", in: `<a b="<"/>`},
	{name: "attribute with two colons", in: `<a b:c:d="1"/>`},
	{name: "xmlns attributes are leaves", in: `<a xmlns="u" xmlns:p="v"><p:b/></a>`, ok: true},

	// Comments, PIs and directives.
	{name: "-- in a comment", in: `<a><!-- x -- y --></a>`},
	{name: "comment closed by --->", in: `<a><!-- x ---></a>`},
	{name: "empty comment", in: `<a><!----></a>`, ok: true},
	{name: "<!- not a comment", in: `<a><!-x--></a>`},
	{name: "XML declaration", in: `<?xml version="1.0" encoding="utf-8"?><a/>`, ok: true},
	{name: "version 1.1", in: `<?xml version="1.1"?><a/>`},
	{name: "encoding latin1", in: `<?xml version="1.0" encoding="latin1"?><a/>`},
	{name: "encoding UTF-8 in any case", in: `<?xml encoding='Utf-8'?><a/>`, ok: true},
	{name: "declaration after the root", in: `<a/><?xml version="2.0"?>`},
	{name: "PI without a target", in: `<a><? x?></a>`},
	{name: "unterminated PI", in: `<a><?p x</a>`},
	{name: "DOCTYPE with an internal subset", in: `<!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!ATTLIST a b CDATA "x>y">]><a/>`, ok: true},
	{name: "DOCTYPE with a comment", in: `<!DOCTYPE a [<!-- > -- -->]><a/>`, ok: true},
	{name: "directive whose first byte is >", in: `<!>x><a/>`, ok: true},
	{name: "unterminated directive", in: `<!DOCTYPE a [<!ELEMENT a ANY>`},

	// Tags.
	{name: "space in />", in: `<a/ >`},
	{name: "self-closing root", in: `<a/>`, ok: true},
	{name: "stray end tag", in: `</a>`},
	{name: "stray end tag after the root", in: `<a/></a>`},
	{name: "unclosed element", in: `<a><b></b>`},
	{name: "lone <", in: `<a/><`},
	{name: "second root", in: `<a/><b/>`, stream: true},
	{name: "text around the root", in: " x <a>1</a> y ", ok: true},

	// Whole inputs.
	{name: "empty input", in: "", stream: true},
	{name: "text-only input", in: "  x  ", stream: true},
	{name: "comment-only input", in: "<!-- x -->", stream: true},
}

// TestScannerMatchesReference checks each rule of the accepted language:
// the scanner's verdict, and its agreement with the reference parser.
func TestScannerMatchesReference(t *testing.T) {
	for _, c := range scannerCases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.in)
			if (err == nil) != c.ok {
				t.Errorf("ParseString(%q): error %v, want ok=%v", c.in, err, c.ok)
			}
			if _, err := ParseAll(strings.NewReader(c.in)); (err == nil) != (c.ok || c.stream) {
				t.Errorf("ParseAll(%q): error %v, want ok=%v", c.in, err, c.ok || c.stream)
			}
			checkAgainstReference(t, c.in)
		})
	}
}
