package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// The encoding/xml token loop that Parse, ParseString and ParseAll ran
// before the byte scanner, kept verbatim as the reference the scanner is
// held to: FuzzParseMatchesReference and TestScannerMatchesReference
// require the same accept/reject decision and equal trees.

func referenceParse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Tag: t.Name.Local}
			for _, a := range t.Attr {
				n.AddChild(New(a.Name.Local, a.Value))
			}
			if len(stack) > 0 {
				stack[len(stack)-1].AddChild(n)
			} else if root == nil {
				root = n
			} else {
				return nil, fmt.Errorf("xmltree: multiple root elements")
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end tag %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			txt := strings.TrimSpace(string(t))
			if txt == "" {
				continue
			}
			top := stack[len(stack)-1]
			if top.Text == "" {
				top.Text = txt
			} else {
				top.Text += " " + txt
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed element %q", stack[len(stack)-1].Tag)
	}
	return root, nil
}

func referenceParseString(s string) (*Node, error) {
	return referenceParse(strings.NewReader(s))
}

func referenceParseAll(r io.Reader) ([]*Node, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: read: %w", err)
	}
	// Wrap in a synthetic root so the decoder accepts multiple siblings.
	wrapped := "<lsd-stream>" + string(data) + "</lsd-stream>"
	root, err := referenceParseString(wrapped)
	if err != nil {
		return nil, err
	}
	return root.Children, nil
}
