package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// scanner parses XML held in memory into Nodes, one pass over the bytes.
// It accepts exactly the input that encoding/xml's Decoder accepts in
// strict mode when read token by token, and builds the trees that token
// loop built; that loop is kept in reference_test.go, and
// FuzzParseMatchesReference holds the two together. DESIGN.md, "XML
// listings scanner", lists the rules.
type scanner struct {
	data   []byte
	pos    int
	single bool // a second top-level element is an error, as in a document

	// open holds the elements whose end tag is still to come, innermost
	// last. kids holds their children so far, each element's from its
	// mark on, and below the first mark the top-level elements.
	open []openElement
	kids []*Node

	tags map[string]string // element and attribute names already checked → tag
	buf  []byte            // character data whose decoded form differs from the input
	slab []Node            // nodes are carved from here
}

type openElement struct {
	node *Node
	name []byte // as written in the start tag, which the end tag must repeat
	mark int    // index in kids of the element's first child
}

var (
	cdataStart = []byte("CDATA[")
	cdataEnd   = []byte("]]>")
)

// predefined are the entities XML defines without a declaration, each
// spelled through its ';'.
var predefined = [...]struct {
	ref string
	r   rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// nameByte marks the bytes a name is read over: ASCII letters, digits,
// "_:.-", and every byte ≥ 0x80, whose runes isName checks afterwards.
var nameByte = func() (t [256]bool) {
	for c := range t {
		lower := c | 0x20
		t[c] = c >= utf8.RuneSelf || 'a' <= lower && lower <= 'z' ||
			'0' <= c && c <= '9' || strings.IndexByte("_:.-", byte(c)) >= 0
	}
	return t
}()

// plainByte marks the bytes that text passes over without a closer look:
// tab, newline and printable ASCII but for '<', '&', ']' and the quotes.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = strings.IndexByte(`<&]"'`, byte(c)) < 0
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// readAll reads r to its end; from a *strings.Reader or *bytes.Reader in
// one allocation.
func readAll(r io.Reader) ([]byte, error) {
	var b bytes.Buffer
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("xmltree: read: %w", err)
	}
	return b.Bytes(), nil
}

// run scans the whole input and returns its top-level elements.
func (s *scanner) run() ([]*Node, error) {
	for s.pos < len(s.data) {
		var err error
		switch {
		case s.data[s.pos] != '<':
			err = s.charData()
		case s.pos+1 == len(s.data):
			err = s.errorAt(len(s.data), "unexpected EOF")
		case s.data[s.pos+1] == '/':
			err = s.endTag()
		case s.data[s.pos+1] == '?':
			err = s.procInst()
		case s.data[s.pos+1] == '!':
			err = s.bang()
		default:
			err = s.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if len(s.open) > 0 {
		return nil, s.errorAt(len(s.data), "unclosed element <%s>", s.open[len(s.open)-1].name)
	}
	if len(s.kids) == 0 {
		return nil, nil
	}
	return s.kids, nil
}

// errorAt returns a syntax error at data[at], naming its line.
func (s *scanner) errorAt(at int, format string, args ...any) error {
	line := 1 + bytes.Count(s.data[:at], []byte{'\n'})
	return fmt.Errorf("xmltree: line %d: %s", line, fmt.Sprintf(format, args...))
}

// node returns a new node with the given tag, carved from a slab. Slabs
// double from 16 nodes to 512, so a small document allocates little and a
// request body of listings a few slabs.
func (s *scanner) node(tag string) *Node {
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]Node, 0, min(max(2*cap(s.slab), 16), 512))
	}
	s.slab = append(s.slab, Node{Tag: tag})
	return &s.slab[len(s.slab)-1]
}

// space skips XML white space.
func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// name returns the name at s.pos, unchecked, and moves past it.
func (s *scanner) name() []byte {
	i := s.pos
	for i < len(s.data) && nameByte[s.data[i]] {
		i++
	}
	name := s.data[s.pos:i]
	s.pos = i
	return name
}

// isName reports whether b, a run of name bytes, is an XML name. An ASCII
// name must start with a letter, '_' or ':'. encoding/xml does not export
// its tables for the rest of Unicode, so a name with a byte ≥ 0x80 is
// checked by decoding "<?name?>": the target of a processing instruction
// goes through the same check as an element name, and nothing else is
// checked on the way.
func isName(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, c := range b {
		if c >= utf8.RuneSelf {
			pi := append(append([]byte("<?"), b...), "?>"...)
			_, err := xml.NewDecoder(bytes.NewReader(pi)).RawToken()
			return err == nil
		}
	}
	c := b[0]
	return 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' || c == ':'
}

// tag checks the element or attribute name raw and returns its tag: the
// part after the colon when one colon has text on both sides, else the
// whole name. A name with two colons is an error. Each distinct name is
// checked, and its tag allocated, once per parse.
func (s *scanner) tag(raw []byte) (string, error) {
	if t, ok := s.tags[string(raw)]; ok {
		return t, nil
	}
	if !isName(raw) {
		return "", s.errorAt(s.pos, "invalid XML name: %s", raw)
	}
	local := raw
	switch bytes.Count(raw, []byte{':'}) {
	case 0:
	case 1:
		if i := bytes.IndexByte(raw, ':'); i > 0 && i < len(raw)-1 {
			local = raw[i+1:]
		}
	default:
		return "", s.errorAt(s.pos, "name %s has more than one colon", raw)
	}
	if s.tags == nil {
		s.tags = make(map[string]string)
	}
	t := string(local)
	s.tags[string(raw)] = t
	return t, nil
}

// startTag scans a start tag or an empty-element tag. The element becomes
// the next child of the innermost open element, or the next top-level
// element; its attributes become its first children, leaves in document
// order.
func (s *scanner) startTag() error {
	at := s.pos
	s.pos++
	raw := s.name()
	if len(raw) == 0 {
		return s.errorAt(s.pos, "expected element name after <")
	}
	tag, err := s.tag(raw)
	if err != nil {
		return err
	}
	if s.single && len(s.open) == 0 && len(s.kids) > 0 {
		return s.errorAt(at, "multiple root elements")
	}
	n := s.node(tag)
	s.kids = append(s.kids, n)
	mark := len(s.kids)
	for {
		s.space()
		if s.pos == len(s.data) {
			return s.errorAt(s.pos, "unexpected EOF")
		}
		switch s.data[s.pos] {
		case '>':
			s.pos++
			s.open = append(s.open, openElement{node: n, name: raw, mark: mark})
			return nil
		case '/':
			if s.pos+1 == len(s.data) || s.data[s.pos+1] != '>' {
				return s.errorAt(s.pos, "expected /> in element")
			}
			s.pos += 2
			s.close(n, mark)
			return nil
		}
		if err := s.attribute(); err != nil {
			return err
		}
	}
}

// attribute scans name="value" or name='value' and adds a leaf for it.
// The value is decoded as text is, but not trimmed.
func (s *scanner) attribute() error {
	raw := s.name()
	if len(raw) == 0 {
		return s.errorAt(s.pos, "expected attribute name in element")
	}
	tag, err := s.tag(raw)
	if err != nil {
		return err
	}
	s.space()
	if s.pos == len(s.data) || s.data[s.pos] != '=' {
		return s.errorAt(s.pos, "attribute name without = in element")
	}
	s.pos++
	s.space()
	if s.pos == len(s.data) || s.data[s.pos] != '"' && s.data[s.pos] != '\'' {
		return s.errorAt(s.pos, "unquoted or missing attribute value in element")
	}
	quote := s.data[s.pos]
	s.pos++
	value, err := s.text(quote)
	if err != nil {
		return err
	}
	leaf := s.node(tag)
	leaf.Text = string(value)
	s.kids = append(s.kids, leaf)
	return nil
}

// endTag scans an end tag, which must repeat the name in the innermost
// open element's start tag.
func (s *scanner) endTag() error {
	at := s.pos
	s.pos += 2
	raw := s.name()
	if len(raw) == 0 {
		return s.errorAt(s.pos, "expected element name after </")
	}
	s.space()
	if s.pos == len(s.data) || s.data[s.pos] != '>' {
		return s.errorAt(s.pos, "invalid characters between </%s and >", raw)
	}
	s.pos++
	if len(s.open) == 0 {
		return s.errorAt(at, "unexpected end element </%s>", raw)
	}
	top := s.open[len(s.open)-1]
	if !bytes.Equal(raw, top.name) {
		return s.errorAt(at, "element <%s> closed by </%s>", top.name, raw)
	}
	s.open = s.open[:len(s.open)-1]
	s.close(top.node, top.mark)
	return nil
}

// close gives n its children, kids[mark:], and drops them from kids. A
// leaf keeps nil Children.
func (s *scanner) close(n *Node, mark int) {
	if len(s.kids) > mark {
		n.Children = append([]*Node(nil), s.kids[mark:]...)
		s.kids = s.kids[:mark]
	}
}

// procInst scans a processing instruction, <?target …?>. The target must
// be a name, and an "xml" declaration may name only version 1.0 and the
// UTF-8 encoding.
func (s *scanner) procInst() error {
	s.pos += 2
	target := s.name()
	if len(target) == 0 {
		return s.errorAt(s.pos, "expected target name after <?")
	}
	if !isName(target) {
		return s.errorAt(s.pos, "invalid XML name: %s", target)
	}
	s.space()
	k := bytes.Index(s.data[s.pos:], []byte("?>"))
	if k < 0 {
		return s.errorAt(len(s.data), "unexpected EOF")
	}
	body := s.data[s.pos : s.pos+k]
	s.pos += k + 2
	if string(target) != "xml" {
		return nil
	}
	if v := declParam("version", string(body)); v != "" && v != "1.0" {
		return s.errorAt(s.pos, "unsupported version %q; only version 1.0 is supported", v)
	}
	if e := declParam("encoding", string(body)); e != "" && !strings.EqualFold(e, "utf-8") {
		return s.errorAt(s.pos, "unsupported encoding %q; only UTF-8 is supported", e)
	}
	return nil
}

// declParam returns the quoted value of param in the body of an XML
// declaration, or "", reading it as encoding/xml does: the value follows
// the first "param=" that is followed by a quote, and runs to the next
// such quote.
func declParam(param, body string) string {
	key := param + "="
	for {
		k := strings.Index(body, key)
		if k < 0 || k+len(key) >= len(body) {
			return ""
		}
		quote := body[k+len(key)]
		body = body[k+len(key)+1:]
		if quote == '"' || quote == '\'' {
			v, _, ok := strings.Cut(body, string(quote))
			if !ok {
				return ""
			}
			return v
		}
	}
}

// bang scans markup that opens with "<!": a comment, a CDATA section or
// a directive such as <!DOCTYPE …>.
func (s *scanner) bang() error {
	i := s.pos + 2
	switch {
	case i == len(s.data):
		return s.errorAt(i, "unexpected EOF")
	case s.data[i] == '-':
		return s.comment()
	case s.data[i] == '[':
		if !bytes.HasPrefix(s.data[i+1:], cdataStart) {
			return s.errorAt(i, "invalid <![ sequence")
		}
		s.pos = i + 1 + len(cdataStart)
		txt, err := s.cdata()
		if err != nil {
			return err
		}
		s.addText(txt)
		return nil
	}
	return s.directive()
}

// comment scans <!-- … -->. Its bytes are not checked, but "--" may
// appear only in the closing "-->".
func (s *scanner) comment() error {
	i := s.pos + 3
	if i == len(s.data) {
		return s.errorAt(i, "unexpected EOF")
	}
	if s.data[i] != '-' {
		return s.errorAt(i, "invalid sequence <!- not part of <!--")
	}
	body := s.data[i+1:]
	k := bytes.Index(body, []byte("--"))
	if k < 0 || k+2 == len(body) {
		return s.errorAt(len(s.data), "unexpected EOF")
	}
	if body[k+2] != '>' {
		return s.errorAt(i+1+k, `invalid sequence "--" not allowed in comments`)
	}
	s.pos = i + 1 + k + 3
	return nil
}

// directive scans a directive as encoding/xml does: it ends at the first
// '>' outside quotes and outside nested '<' … '>' pairs, and a comment
// inside it is skipped. The byte after "<!" is neither a quote nor a
// bracket.
func (s *scanner) directive() error {
	var quote byte
	depth := 0
	for i := s.pos + 3; i < len(s.data); i++ {
		c := s.data[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			if depth == 0 {
				s.pos = i + 1
				return nil
			}
			depth--
		case c == '<':
			if !bytes.HasPrefix(s.data[i+1:], []byte("!--")) {
				depth++
				continue
			}
			k := bytes.Index(s.data[i+4:], []byte("-->"))
			if k < 0 {
				return s.errorAt(len(s.data), "unexpected EOF")
			}
			i += 4 + k + 2
		}
	}
	return s.errorAt(len(s.data), "unexpected EOF")
}

// charData scans a text run: the character data up to the next markup.
func (s *scanner) charData() error {
	txt, err := s.text(0)
	if err != nil {
		return err
	}
	s.addText(txt)
	return nil
}

// addText adds a decoded run of character data to the innermost open
// element: trimmed on its own, and after one space when the element
// already has text. A run outside every element is dropped.
func (s *scanner) addText(txt []byte) {
	if len(s.open) == 0 {
		return
	}
	txt = bytes.TrimSpace(txt)
	if len(txt) == 0 {
		return
	}
	n := s.open[len(s.open)-1].node
	if n.Text == "" {
		n.Text = string(txt)
	} else {
		n.Text += " " + string(txt)
	}
}

// text scans character data from s.pos and returns it decoded: character
// and entity references replaced, "\r\n" and a lone "\r" folded to "\n".
// With quote 0 it scans a text run, which ends before the next '<' or at
// the end of the input and may not hold "]]>". Otherwise it scans an
// attribute value, which ends at the closing quote (consumed) and may not
// hold '<'. Every character must be one XML allows. The result aliases
// the input or s.buf, so a caller copies what it keeps.
func (s *scanner) text(quote byte) ([]byte, error) {
	data, start, i := s.data, s.pos, s.pos
	// Once a reference or a '\r' is decoded, the result is built in out,
	// which holds everything before data[from].
	out, from, decoded := s.buf[:0], start, false
scan:
	for {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i == len(data) {
			if quote != 0 {
				return nil, s.errorAt(i, "unexpected EOF")
			}
			break
		}
		c := data[i]
		if c == quote && quote != 0 {
			break
		}
		switch {
		case c >= utf8.RuneSelf:
			size, err := s.checkRune(i)
			if err != nil {
				return nil, err
			}
			i += size
		case c == '<':
			if quote != 0 {
				return nil, s.errorAt(i, "unescaped < inside quoted string")
			}
			break scan
		case c == '&':
			r, size, err := s.reference(i)
			if err != nil {
				return nil, err
			}
			out = append(out, data[from:i]...)
			out = utf8.AppendRune(out, r)
			i += size
			from, decoded = i, true
		case c == '\r':
			out = append(out, data[from:i]...)
			out = append(out, '\n')
			i++
			if i < len(data) && data[i] == '\n' {
				i++
			}
			from, decoded = i, true
		case c == ']':
			if quote == 0 && bytes.HasPrefix(data[i:], cdataEnd) {
				return nil, s.errorAt(i, "unescaped ]]> not in CDATA section")
			}
			i++
		case c == '"' || c == '\'':
			i++
		default:
			return nil, s.errorAt(i, "illegal character code %U", rune(c))
		}
	}
	s.pos = i
	if quote != 0 {
		s.pos++
	}
	if !decoded {
		return data[start:i], nil
	}
	out = append(out, data[from:i]...)
	s.buf = out
	return out, nil
}

// cdata scans a CDATA section's content, from s.pos up to "]]>", which it
// consumes, and returns it with line ends folded as text's are. Its
// characters are checked as text's are; it holds no references.
func (s *scanner) cdata() ([]byte, error) {
	k := bytes.Index(s.data[s.pos:], cdataEnd)
	if k < 0 {
		return nil, s.errorAt(len(s.data), "unexpected EOF in CDATA section")
	}
	start, end := s.pos, s.pos+k
	for i := start; i < end; {
		switch c := s.data[i]; {
		case c >= utf8.RuneSelf:
			size, err := s.checkRune(i)
			if err != nil {
				return nil, err
			}
			i += size
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			return nil, s.errorAt(i, "illegal character code %U", rune(c))
		default:
			i++
		}
	}
	s.pos = end + len(cdataEnd)
	raw := s.data[start:end]
	if bytes.IndexByte(raw, '\r') < 0 {
		return raw, nil
	}
	out := s.buf[:0]
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\r' {
			out = append(out, raw[i])
			continue
		}
		out = append(out, '\n')
		if i+1 < len(raw) && raw[i+1] == '\n' {
			i++
		}
	}
	s.buf = out
	return out, nil
}

// checkRune checks the multi-byte character at data[i], which must be
// valid UTF-8 and in XML's Char range, and returns its length.
func (s *scanner) checkRune(i int) (int, error) {
	r, size := utf8.DecodeRune(s.data[i:])
	if r == utf8.RuneError && size == 1 {
		return 0, s.errorAt(i, "invalid UTF-8")
	}
	if !isInCharacterRange(r) {
		return 0, s.errorAt(i, "illegal character code %U", r)
	}
	return size, nil
}

// reference decodes the reference at data[i], which is '&', and returns
// the character it stands for and its length. It knows the predefined
// entities and character references, decimal or hexadecimal ("&#x", with
// a lower-case x), up to U+10FFFF; a surrogate stands for U+FFFD, and the
// character must be in XML's Char range. Anything else, a missing ';'
// included, is an error.
func (s *scanner) reference(i int) (rune, int, error) {
	ref := s.data[i+1:]
	if len(ref) == 0 || ref[0] != '#' {
		for _, e := range predefined {
			if len(ref) >= len(e.ref) && string(ref[:len(e.ref)]) == e.ref {
				return e.r, 1 + len(e.ref), nil
			}
		}
		return 0, 0, s.errorAt(i, "invalid character entity")
	}
	j, base := 1, uint64(10)
	if len(ref) > 1 && ref[1] == 'x' {
		j, base = 2, 16
	}
	first := j
	var n uint64
	for ; j < len(ref); j++ {
		d := digit(ref[j], base)
		if d < 0 {
			break
		}
		if n <= unicode.MaxRune { // past it, the reference is an error however it goes on
			n = n*base + uint64(d)
		}
	}
	if j == first || j == len(ref) || ref[j] != ';' || n > unicode.MaxRune {
		return 0, 0, s.errorAt(i, "invalid character reference")
	}
	r := rune(n)
	if 0xD800 <= r && r <= 0xDFFF {
		r = utf8.RuneError
	}
	if !isInCharacterRange(r) {
		return 0, 0, s.errorAt(i, "illegal character code %U", r)
	}
	return r, j + 2, nil
}

// digit returns the value of c as a digit in base 10 or 16, or -1.
func digit(c byte, base uint64) int {
	switch lower := c | 0x20; {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case base == 16 && 'a' <= lower && lower <= 'f':
		return int(lower-'a') + 10
	}
	return -1
}

// isInCharacterRange reports whether r is in the Char production of XML
// 1.0, §2.2.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
