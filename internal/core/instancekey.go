package core

import (
	"strings"

	"repro/internal/xmltree"
)

// instanceKey is the textual identity of an instance for caching and
// batch deduplication: tag name, root path, and content, separated by
// a byte that cannot occur in XML tag names. For leaf and text-only
// instances this covers every feature any learner reads (the name
// matcher's expanded name is tag + path + synonyms, and synonyms are
// a pure function of the tag; all other learners read only the
// content), so equal keys imply bit-identical predictions.
func instanceKey(tag string, path []string, content string) string {
	n := len(tag) + len(content) + len(path) + 2
	for _, p := range path {
		n += len(p)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(tag)
	b.WriteByte(0x1f)
	for _, p := range path {
		b.WriteString(p)
		b.WriteByte(0x1e)
	}
	b.WriteByte(0x1f)
	b.WriteString(content)
	return b.String()
}

// nameKey is the key of a name-only instance: tag and root path. It
// carries no synonyms, unlike an empty leaf with the same tag and path,
// so the two must not share an entry. The 0x1d prefix byte, impossible
// at the start of a tag name, keeps its keyspace apart.
func nameKey(tag string, path []string) string {
	return "\x1d" + instanceKey(tag, path, "")
}

// interiorKey is the textual identity of an interior-node instance:
// root path plus a lossless serialization of the whole subtree. Every
// feature any learner reads from an interior instance derives from the
// subtree and the path — the tag is the subtree root's, synonyms are a
// pure function of the tag, Content() concatenates the subtree's text,
// and the XML learner's structural tokens walk the same tree under
// sub-element labels, each a pure function of a child's tag, path and
// content — so equal keys imply bit-identical predictions and labels.
// The 0x1c prefix byte, impossible in a tag name, keeps the interior
// keyspace disjoint from instanceKey's.
func interiorKey(path []string, n *xmltree.Node) string {
	var b strings.Builder
	b.Grow(64 + n.Size()*16)
	b.WriteByte(0x1c)
	for _, p := range path {
		b.WriteString(p)
		b.WriteByte(0x1e)
	}
	b.WriteByte(0x1f)
	writeSubtree(&b, n)
	return b.String()
}

// writeSubtree appends an unambiguous serialization of n: tag and text
// separated by 0x1d, each child wrapped in 0x1c…0x1e. XML character
// data cannot contain these control bytes, so distinct trees always
// serialize distinctly.
func writeSubtree(b *strings.Builder, n *xmltree.Node) {
	b.WriteString(n.Tag)
	b.WriteByte(0x1d)
	b.WriteString(n.Text)
	for _, c := range n.Children {
		b.WriteByte(0x1c)
		writeSubtree(b, c)
		b.WriteByte(0x1e)
	}
}
