// Package dtd implements the schema substrate of LSD: a parser for XML
// document type definitions (the BNF-style <!ELEMENT ...> grammar of
// §2.1), a document validator, and the schema-tree utilities (tags,
// non-leaf tags, depth, nesting and sibling relations) that the
// constraint handler and the Table-3 statistics rely on.
package dtd

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Occurs is a repetition marker on a content particle.
type Occurs int

const (
	// One means the particle appears exactly once.
	One Occurs = iota
	// Optional marks a `?` particle: zero or one occurrence.
	Optional
	// ZeroOrMore marks a `*` particle.
	ZeroOrMore
	// OneOrMore marks a `+` particle.
	OneOrMore
)

func (o Occurs) String() string {
	switch o {
	case Optional:
		return "?"
	case ZeroOrMore:
		return "*"
	case OneOrMore:
		return "+"
	default:
		return ""
	}
}

// ParticleKind distinguishes the three content-particle shapes.
type ParticleKind int

const (
	// NameParticle references a child element by name.
	NameParticle ParticleKind = iota
	// SeqParticle is a comma-separated sequence (a, b, c).
	SeqParticle
	// ChoiceParticle is a |-separated choice (a | b | c).
	ChoiceParticle
)

// Particle is a node in a content-model expression tree.
type Particle struct {
	Kind     ParticleKind
	Name     string      // for NameParticle
	Children []*Particle // for Seq/Choice
	Occurs   Occurs
	// Line is the 1-based source line the particle starts on, recorded
	// by Parse for static-analysis reports; 0 for hand-built particles.
	Line int
}

func (p *Particle) String() string {
	var body string
	switch p.Kind {
	case NameParticle:
		body = p.Name
	case SeqParticle, ChoiceParticle:
		sep := ", "
		if p.Kind == ChoiceParticle {
			sep = " | "
		}
		parts := make([]string, len(p.Children))
		for i, c := range p.Children {
			parts[i] = c.String()
		}
		body = "(" + strings.Join(parts, sep) + ")"
	}
	return body + p.Occurs.String()
}

// ModelKind classifies an element's content model.
type ModelKind int

const (
	// PCDATA is text-only content: (#PCDATA).
	PCDATA ModelKind = iota
	// ElementContent is structured content described by a particle.
	ElementContent
	// Mixed is (#PCDATA | a | b)* content.
	Mixed
	// Empty is EMPTY content.
	Empty
	// Any is ANY content.
	Any
)

// ContentModel is the right-hand side of an element declaration.
type ContentModel struct {
	Kind     ModelKind
	Particle *Particle // for ElementContent
	MixedSet []string  // for Mixed: allowed child tags
}

func (m *ContentModel) String() string {
	switch m.Kind {
	case PCDATA:
		return "(#PCDATA)"
	case Empty:
		return "EMPTY"
	case Any:
		return "ANY"
	case Mixed:
		if len(m.MixedSet) == 0 {
			return "(#PCDATA)"
		}
		return "(#PCDATA | " + strings.Join(m.MixedSet, " | ") + ")*"
	default:
		s := m.Particle.String()
		// A bare name (or marked name) still needs group parentheses to
		// be legal DTD syntax: (b), (b)?.
		if m.Particle.Kind == NameParticle {
			s = "(" + m.Particle.Name + ")" + m.Particle.Occurs.String()
		}
		return s
	}
}

// Element is a declared element: its name, content model, and any
// attributes declared via <!ATTLIST>. LSD treats attributes as
// additional leaf sub-elements (§2.1).
type Element struct {
	Name       string
	Model      *ContentModel
	Attributes []string
	// Line is the 1-based source line of the <!ELEMENT declaration and
	// AttlistLine that of the first <!ATTLIST naming the element; both
	// are recorded by Parse for static-analysis reports and 0 for
	// hand-built elements.
	Line        int
	AttlistLine int
}

// Schema is a parsed DTD: a set of element declarations with a root.
// Once built, a Schema is safe for concurrent readers: the pipeline
// shares one instance across all matching workers.
type Schema struct {
	elements map[string]*Element
	order    []string // declaration order
	// rootOnce guards the lazily computed root so concurrent Root()
	// calls do not race. As before, the root is fixed on first use;
	// Declare after that point does not re-elect it.
	rootOnce sync.Once
	root     string
	// sibs is the sibling-order index, built on the first sibling
	// query and dropped by Declare (see siblings).
	sibs atomic.Pointer[siblingIndex]
}

// NewSchema returns an empty schema; elements are added with Declare.
func NewSchema() *Schema {
	return &Schema{elements: make(map[string]*Element)}
}

// Declare adds an element declaration. Redeclaration is an error, as in
// the XML specification.
func (s *Schema) Declare(e *Element) error {
	if _, dup := s.elements[e.Name]; dup {
		return fmt.Errorf("dtd: element %q declared twice", e.Name)
	}
	s.elements[e.Name] = e
	s.order = append(s.order, e.Name)
	s.sibs.Store(nil)
	return nil
}

// Element returns the declaration of name, or nil.
func (s *Schema) Element(name string) *Element { return s.elements[name] }

// Decls returns the element declarations in declaration order; the
// static checker (internal/schemacheck) walks schemas through this.
func (s *Schema) Decls() []*Element {
	out := make([]*Element, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.elements[name])
	}
	return out
}

// Tags returns all declared element names in declaration order,
// followed by attribute pseudo-tags.
func (s *Schema) Tags() []string {
	out := make([]string, 0, len(s.order))
	seen := make(map[string]bool, len(s.order))
	for _, name := range s.order {
		out = append(out, name)
		seen[name] = true
	}
	for _, name := range s.order {
		for _, a := range s.elements[name].Attributes {
			if !seen[a] {
				out = append(out, a)
				seen[a] = true
			}
		}
	}
	return out
}

// NumTags returns the number of distinct tags (elements + attributes).
func (s *Schema) NumTags() int { return len(s.Tags()) }

// ChildTags returns the distinct element names that can appear directly
// under name (including attribute pseudo-tags), in sorted order.
func (s *Schema) ChildTags(name string) []string {
	e := s.elements[name]
	if e == nil {
		return nil
	}
	set := make(map[string]bool)
	switch e.Model.Kind {
	case ElementContent:
		collectNames(e.Model.Particle, set)
	case Mixed:
		for _, t := range e.Model.MixedSet {
			set[t] = true
		}
	}
	for _, a := range e.Attributes {
		set[a] = true
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func collectNames(p *Particle, set map[string]bool) {
	if p == nil {
		return
	}
	if p.Kind == NameParticle {
		set[p.Name] = true
		return
	}
	for _, c := range p.Children {
		collectNames(c, set)
	}
}

// NonLeafTags returns the declared elements that can contain other
// elements, in declaration order.
func (s *Schema) NonLeafTags() []string {
	var out []string
	for _, name := range s.order {
		if len(s.ChildTags(name)) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// IsLeaf reports whether tag cannot contain child elements. Attribute
// pseudo-tags are always leaves. It answers from the content model
// without building ChildTags' set, so the constraint handler can ask it
// for every mapped tag of every candidate mapping.
func (s *Schema) IsLeaf(tag string) bool {
	e := s.elements[tag]
	if e == nil {
		return true
	}
	if len(e.Attributes) > 0 {
		return false
	}
	switch e.Model.Kind {
	case ElementContent:
		return !hasName(e.Model.Particle)
	case Mixed:
		return len(e.Model.MixedSet) == 0
	}
	return true
}

// hasName reports whether the particle tree references any element.
func hasName(p *Particle) bool {
	if p == nil {
		return false
	}
	if p.Kind == NameParticle {
		return true
	}
	for _, c := range p.Children {
		if hasName(c) {
			return true
		}
	}
	return false
}

// Root returns the root element: the first declared element that is
// not referenced in any other element's content model. If every
// element is referenced the first declared element is the root.
func (s *Schema) Root() string {
	s.rootOnce.Do(func() {
		referenced := make(map[string]bool)
		for _, name := range s.order {
			for _, c := range s.ChildTags(name) {
				referenced[c] = true
			}
		}
		for _, name := range s.order {
			if !referenced[name] {
				s.root = name
				return
			}
		}
		if len(s.order) > 0 {
			s.root = s.order[0]
		}
	})
	return s.root
}

// Depth returns the length of the longest root-to-leaf path in the
// schema tree (a single-level schema has depth 1). Cycles contribute a
// single traversal.
func (s *Schema) Depth() int {
	visiting := make(map[string]bool)
	var depth func(tag string) int
	depth = func(tag string) int {
		if visiting[tag] {
			return 0
		}
		visiting[tag] = true
		defer delete(visiting, tag)
		max := 0
		for _, c := range s.ChildTags(tag) {
			if d := depth(c); d > max {
				max = d
			}
		}
		return max + 1
	}
	return depth(s.Root())
}

// PathFromRoot returns the tag names on the path from the root to tag,
// inclusive of both, using the first (declaration-ordered) parent found.
// It returns nil if tag is unreachable from the root.
func (s *Schema) PathFromRoot(tag string) []string {
	type state struct {
		tag  string
		path []string
	}
	root := s.Root()
	queue := []state{{root, []string{root}}}
	seen := map[string]bool{root: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.tag == tag {
			return cur.path
		}
		for _, c := range s.ChildTags(cur.tag) {
			if !seen[c] {
				seen[c] = true
				next := append(append([]string{}, cur.path...), c)
				queue = append(queue, state{c, next})
			}
		}
	}
	return nil
}

// Parent returns the first declared element under which tag can appear,
// or "" if tag is the root or undeclared.
func (s *Schema) Parent(tag string) string {
	for _, name := range s.order {
		for _, c := range s.ChildTags(name) {
			if c == tag {
				return name
			}
		}
	}
	return ""
}

// CanNest reports whether descendant can appear (at any depth) inside
// ancestor according to the schema.
func (s *Schema) CanNest(ancestor, descendant string) bool {
	seen := make(map[string]bool)
	var walk func(tag string) bool
	walk = func(tag string) bool {
		if seen[tag] {
			return false
		}
		seen[tag] = true
		for _, c := range s.ChildTags(tag) {
			if c == descendant || walk(c) {
				return true
			}
		}
		return false
	}
	return walk(ancestor)
}

// Siblings reports whether a and b share a declared parent element.
func (s *Schema) Siblings(a, b string) bool {
	_, _, _, ok := s.siblings().common(a, b)
	return ok
}

// SiblingsBetween returns the declared tags strictly between a and b in
// their common parent's content-model order, or nil (and false) if a
// and b are not ordered siblings. The common parent is the first
// declared element listing both. A child tag is its own sibling with
// nothing between. The returned slice is the caller's.
func (s *Schema) SiblingsBetween(a, b string) ([]string, bool) {
	ix := s.siblings()
	d, ia, ib, ok := ix.common(a, b)
	if !ok {
		return nil, false
	}
	if ia > ib {
		ia, ib = ib, ia
	}
	if ia == ib {
		return []string{}, true
	}
	return append([]string{}, ix.orders[d][ia+1:ib]...), true
}

// siblingIndex is a schema's sibling order, built once: each
// declaration's child order, and for each tag the declarations that
// list it, in declaration order, with its first position in each. A
// sibling query merges two such lists instead of rebuilding every
// declaration's child order.
type siblingIndex struct {
	orders [][]string // childOrder of each declaration, in declaration order
	at     map[string][]childPos
}

// childPos places a tag in a declaration's child order.
type childPos struct{ decl, pos int }

// siblings returns the sibling-order index, building it on first use.
// It is built lazily rather than by Declare because Parse declares
// every element before it attaches the ATTLIST attributes, which are
// children too. Concurrent first readers may each build it; they store
// equal indexes.
func (s *Schema) siblings() *siblingIndex {
	if ix := s.sibs.Load(); ix != nil {
		return ix
	}
	ix := &siblingIndex{
		orders: make([][]string, len(s.order)),
		at:     make(map[string][]childPos),
	}
	for d, name := range s.order {
		order := childOrder(s.elements[name])
		ix.orders[d] = order
		for p, t := range order {
			ps := ix.at[t]
			if n := len(ps); n > 0 && ps[n-1].decl == d {
				continue // a repeated child keeps its first position
			}
			ix.at[t] = append(ps, childPos{d, p})
		}
	}
	s.sibs.Store(ix)
	return ix
}

// common returns the first declaration listing both a and b, with
// their first positions in its child order.
func (ix *siblingIndex) common(a, b string) (decl, ia, ib int, ok bool) {
	pa, pb := ix.at[a], ix.at[b]
	for i, j := 0, 0; i < len(pa) && j < len(pb); {
		switch {
		case pa[i].decl < pb[j].decl:
			i++
		case pa[i].decl > pb[j].decl:
			j++
		default:
			return pa[i].decl, pa[i].pos, pb[j].pos, true
		}
	}
	return 0, 0, 0, false
}

// ChildOrder returns the distinct element names that can appear
// directly under name, in content-model (declaration) order, followed
// by attribute pseudo-tags. Unlike ChildTags, which sorts, this
// preserves the sibling order sequence models prescribe.
func (s *Schema) ChildOrder(name string) []string {
	return childOrder(s.elements[name])
}

// childOrder returns the child names of e in content-model order.
func childOrder(e *Element) []string {
	if e == nil || e.Model == nil {
		return nil
	}
	var out []string
	seen := make(map[string]bool)
	var walk func(p *Particle)
	walk = func(p *Particle) {
		if p == nil {
			return
		}
		if p.Kind == NameParticle {
			if !seen[p.Name] {
				seen[p.Name] = true
				out = append(out, p.Name)
			}
			return
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	switch e.Model.Kind {
	case ElementContent:
		walk(e.Model.Particle)
	case Mixed:
		out = append(out, e.Model.MixedSet...)
	}
	out = append(out, e.Attributes...)
	return out
}

// String renders the schema back as DTD text.
func (s *Schema) String() string {
	var b strings.Builder
	for _, name := range s.order {
		e := s.elements[name]
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", e.Name, e.Model)
		if len(e.Attributes) > 0 {
			fmt.Fprintf(&b, "<!ATTLIST %s", e.Name)
			for _, a := range e.Attributes {
				fmt.Fprintf(&b, " %s CDATA #IMPLIED", a)
			}
			b.WriteString(">\n")
		}
	}
	return b.String()
}
