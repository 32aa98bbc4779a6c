// Package xmltree provides the XML instance model used throughout LSD:
// a lightweight element tree, a parser, serialization, and the
// path/depth utilities the learners need.
//
// The parser is a byte scanner over the whole input (scan.go). It
// accepts exactly what encoding/xml's Decoder accepts in strict mode,
// read token by token, and builds the same trees: each run of character
// data between two pieces of markup is trimmed and the non-empty runs
// are joined with one space. Texts and tags are copies, so no node keeps
// its input alive. Errors name the line.
//
// Per the paper (§2.1), attributes and sub-elements are treated in the
// same fashion: each attribute of an element is modelled as an
// additional leaf child.
package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Node is an XML element: a tag, the character data directly enclosed
// by the tag, and its sub-elements in document order.
type Node struct {
	Tag      string
	Text     string // concatenated trimmed character data directly under this node
	Children []*Node
}

// New returns a leaf node with the given tag and text.
func New(tag, textContent string) *Node {
	return &Node{Tag: tag, Text: textContent}
}

// NewParent returns an internal node with the given tag and children.
func NewParent(tag string, children ...*Node) *Node {
	return &Node{Tag: tag, Children: children}
}

// AddChild appends child to n and returns n for chaining.
func (n *Node) AddChild(child *Node) *Node {
	n.Children = append(n.Children, child)
	return n
}

// IsLeaf reports whether n has no sub-elements.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Depth returns the depth of the tree rooted at n; a leaf has depth 1.
func (n *Node) Depth() int {
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Size returns the number of nodes in the tree rooted at n.
func (n *Node) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Content returns the concatenation of all text in the subtree rooted
// at n, in document order, separated by single spaces.
func (n *Node) Content() string {
	if len(n.Children) == 0 {
		return n.Text
	}
	var parts []string
	n.walkContent(&parts)
	return strings.Join(parts, " ")
}

func (n *Node) walkContent(parts *[]string) {
	if n.Text != "" {
		*parts = append(*parts, n.Text)
	}
	for _, c := range n.Children {
		c.walkContent(parts)
	}
}

// Walk calls fn for every node in the subtree rooted at n, pre-order.
// The second argument to fn is the path of tags from the root to the
// node, inclusive.
func (n *Node) Walk(fn func(node *Node, path []string)) {
	n.walk(nil, fn)
}

func (n *Node) walk(prefix []string, fn func(*Node, []string)) {
	path := append(prefix, n.Tag)
	fn(n, path)
	for _, c := range n.Children {
		c.walk(path, fn)
	}
}

// FindAll returns all nodes in the subtree rooted at n (including n
// itself) whose tag equals tag, in document order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(node *Node, _ []string) {
		if node.Tag == tag {
			out = append(out, node)
		}
	})
	return out
}

// First returns the first direct child of n with the given tag, or nil.
func (n *Node) First(tag string) *Node {
	for _, c := range n.Children {
		if c.Tag == tag {
			return c
		}
	}
	return nil
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	cp := &Node{Tag: n.Tag, Text: n.Text}
	if len(n.Children) > 0 {
		cp.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Tags returns the set of distinct tags appearing in the subtree.
func (n *Node) Tags() map[string]bool {
	set := make(map[string]bool)
	n.Walk(func(node *Node, _ []string) { set[node.Tag] = true })
	return set
}

// String renders the tree as indented XML.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b, 0)
	return b.String()
}

func (n *Node) write(b *strings.Builder, indent int) {
	pad := strings.Repeat("  ", indent)
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s<%s>%s</%s>\n", pad, n.Tag, escape(n.Text), n.Tag)
		return
	}
	fmt.Fprintf(b, "%s<%s>", pad, n.Tag)
	if n.Text != "" {
		b.WriteString(escape(n.Text))
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		c.write(b, indent+1)
	}
	fmt.Fprintf(b, "%s</%s>\n", pad, n.Tag)
}

func escape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}

// Parse reads a single XML document from r and returns its root node.
// Attributes are converted to leaf children, matching the paper's
// uniform treatment of attributes and sub-elements.
func Parse(r io.Reader) (*Node, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return parseDocument(data)
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Node, error) {
	return parseDocument([]byte(s))
}

func parseDocument(data []byte) (*Node, error) {
	s := scanner{data: data, single: true}
	roots, err := s.run()
	if err != nil {
		return nil, err
	}
	if len(roots) == 0 {
		return nil, s.errorAt(len(data), "empty document")
	}
	return roots[0], nil
}

// ParseAll reads a stream of sibling XML documents (e.g. a file of
// house listings) and returns their roots in order. Input without an
// element gives no roots and no error.
func ParseAll(r io.Reader) ([]*Node, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	s := scanner{data: data}
	return s.run()
}
