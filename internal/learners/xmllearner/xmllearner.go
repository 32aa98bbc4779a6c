// Package xmllearner implements the XML learner of §5, the paper's
// novel classifier for nested elements. Like Naive Bayes it represents
// an instance as a bag of tokens and multiplies token probabilities,
// but the bag contains structure tokens in addition to text tokens:
//
//   - text tokens: the stemmed words in leaf content;
//   - node tokens: one per non-root sub-element, carrying its label;
//   - edge tokens: one per parent-child pair, from the generic root or
//     a sub-element label to a child label or leaf word.
//
// During training the sub-element labels are the true labels given by
// the user's 1-1 mappings; during matching they are predicted by the
// rest of LSD (the other base learners combined by the meta-learner),
// exactly as Table 2 of the paper prescribes, and arrive with each
// instance (learn.Instance.SubLabels).
package xmllearner

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/learn"
	"repro/internal/learners/naivebayes"
	"repro/internal/text"
	"repro/internal/xmltree"
)

// genericRoot is tR of Table 2: every instance tree's own tag is
// replaced with this placeholder so the learner never keys on the
// source-specific root tag.
const genericRoot = "d"

// Learner is the XML learner. New's argument labels sub-elements while
// it trains; while it predicts, each instance brings the labels of its
// sub-elements. A trained or restored learner is never written again,
// so systems may share it.
type Learner struct {
	nb *naivebayes.Learner
	// index finds the ids of nb's structural tokens; built at Train and
	// Restore, empty before.
	index        *tokenIndex
	trainLabeler func(*xmltree.Node) string
}

// New returns an untrained XML learner. trainLabeler labels
// sub-elements during training (from the user's 1-1 mappings); nil
// keeps their tags verbatim — useful in isolation tests but not the
// paper's configuration.
func New(trainLabeler func(*xmltree.Node) string) *Learner {
	return &Learner{
		nb:           naivebayes.New(),
		index:        &tokenIndex{},
		trainLabeler: trainLabeler,
	}
}

// State snapshots the trained learner's Naive Bayes model for
// serialization; nil if untrained. The training labeler is code, not
// data, and only Train needs it.
func (l *Learner) State() *naivebayes.State { return l.nb.State() }

// Restore rebuilds a trained XML learner from its serialized Naive
// Bayes state.
func Restore(st *naivebayes.State) (*Learner, error) {
	nb, err := naivebayes.Restore(st)
	if err != nil {
		return nil, fmt.Errorf("xmllearner: %w", err)
	}
	return &Learner{nb: nb, index: newTokenIndex(nb.Vocab())}, nil
}

// Name implements learn.Learner.
func (l *Learner) Name() string { return "XMLLearner" }

// Train builds the structural token bags of every example (Table 2,
// training phase) and fits the underlying Naive Bayes model on them.
func (l *Learner) Train(labels []string, examples []learn.Example) error {
	if len(labels) == 0 {
		return fmt.Errorf("xmllearner: no labels")
	}
	bags := make([]text.Bag, 0, len(examples))
	bagLabels := make([]string, 0, len(examples))
	for _, ex := range examples {
		bags = append(bags, l.TokenBag(ex.Instance, l.trainLabeler))
		bagLabels = append(bagLabels, ex.Label)
	}
	if err := l.nb.TrainBags(labels, bags, bagLabels); err != nil {
		return err
	}
	l.index = newTokenIndex(l.nb.Vocab())
	return nil
}

// Predict builds the instance's structural token bag as vocabulary
// ids, labelling each sub-element with in.SubLabels, and returns the
// Naive Bayes posterior over the bag.
func (l *Learner) Predict(in learn.Instance) learn.Prediction {
	var labeler func(*xmltree.Node) string
	if labels := in.SubLabels; labels != nil {
		labeler = func(n *xmltree.Node) string { return labels[n] }
	}
	return l.nb.PredictSparse(l.sparseBag(in, labeler))
}

// TokenBag generates the bag of text, node, and edge tokens for an
// instance (Table 2 step 3 / Figure 7.f), spelled as strings: the form
// training interns, labelling each sub-element with labeler (nil keeps
// its tag). Exposed for tests.
func (l *Learner) TokenBag(in learn.Instance, labeler func(*xmltree.Node) string) text.Bag {
	s := sink{bag: text.Bag{}}
	s.walk(in, labeler)
	return s.bag
}

// sparseBag generates the same tokens as TokenBag and projects them
// onto the trained vocabulary as it goes, so no token is spelled as a
// string. The result equals the vocabulary's SparseBag of TokenBag's
// bag; before training every token is out of vocabulary.
func (l *Learner) sparseBag(in learn.Instance, labeler func(*xmltree.Node) string) text.SparseBag {
	s := sink{index: l.index, ids: make([]text.ID, 0, 64)}
	s.walk(in, labeler)
	return s.sparse()
}

// sink receives the tokens of one walk: the text token "w:"+word, the
// node token "n:"+label and the edge token "e:"+parent+">"+child. With
// bag set it spells each token as the string training interns;
// otherwise it looks the token's id up in index, as prediction does,
// and counts the tokens the vocabulary lacks.
type sink struct {
	bag   text.Bag
	index *tokenIndex
	ids   []text.ID
	oov   int
}

// walk feeds the tokens of an instance's Table 2 tree to s.
func (s *sink) walk(in learn.Instance, labeler func(*xmltree.Node) string) {
	if in.Node == nil {
		// Fall back to plain text tokens: a flat instance has no
		// structure, so the learner degrades to Naive Bayes.
		for _, w := range naivebayes.Tokens(in.Content) {
			s.word(w)
		}
		return
	}
	s.collect(in.Node, genericRoot, labeler)
}

// collect walks the children of node, whose resolved label is
// parentLabel, feeding tokens to s.
func (s *sink) collect(node *xmltree.Node, parentLabel string, labeler func(*xmltree.Node) string) {
	// Words directly under this node.
	for _, w := range naivebayes.Tokens(node.Text) {
		s.word(w)
		s.edge(parentLabel, w)
	}
	for _, child := range node.Children {
		label := child.Tag
		if labeler != nil {
			label = labeler(child)
		}
		if child.IsLeaf() {
			// Leaf sub-elements contribute their words under the
			// parent's label plus, when labelled, a node token.
			if labeler != nil {
				s.node(label)
				s.edge(parentLabel, label)
			}
			for _, w := range naivebayes.Tokens(child.Text) {
				s.word(w)
				s.edge(label, w)
			}
			continue
		}
		s.node(label)
		s.edge(parentLabel, label)
		s.collect(child, label, labeler)
	}
}

func (s *sink) word(w string) {
	if s.bag != nil {
		s.bag["w:"+w]++
		return
	}
	id, ok := s.index.word[w]
	s.add(id, ok)
}

func (s *sink) node(label string) {
	if s.bag != nil {
		s.bag["n:"+label]++
		return
	}
	id, ok := s.index.node[label]
	s.add(id, ok)
}

func (s *sink) edge(parent, child string) {
	if s.bag != nil {
		s.bag["e:"+parent+">"+child]++
		return
	}
	id, ok := s.index.edge[parent][child]
	s.add(id, ok)
}

func (s *sink) add(id text.ID, ok bool) {
	if ok {
		s.ids = append(s.ids, id)
	} else {
		s.oov++
	}
}

// sparse returns the collected ids as a sparse bag: ascending ids,
// each with its count, and the out-of-vocabulary total.
func (s *sink) sparse() text.SparseBag {
	sb := text.SparseBag{OOV: s.oov}
	if len(s.ids) == 0 {
		return sb
	}
	slices.Sort(s.ids)
	n := 1
	for i := 1; i < len(s.ids); i++ {
		if s.ids[i] != s.ids[i-1] {
			n++
		}
	}
	sb.Terms = make([]text.IDCount, 0, n)
	for _, id := range s.ids {
		if k := len(sb.Terms) - 1; k >= 0 && sb.Terms[k].ID == id {
			sb.Terms[k].N++
		} else {
			sb.Terms = append(sb.Terms, text.IDCount{ID: id, N: 1})
		}
	}
	return sb
}

// tokenIndex finds a structural token's vocabulary id from its parts.
// The zero index is empty: every lookup misses.
type tokenIndex struct {
	word map[string]text.ID            // "w:"+word
	node map[string]text.ID            // "n:"+label
	edge map[string]map[string]text.ID // "e:"+parent+">"+child, by parent then child
}

// newTokenIndex indexes the structural tokens of v. An edge token is
// entered under every split at a '>', so a lookup is exact whatever
// the parts contain; labels, tags and words contain no '>', so in
// practice each edge token has exactly one split, at its first '>'.
func newTokenIndex(v *text.Vocab) *tokenIndex {
	ix := &tokenIndex{
		word: make(map[string]text.ID),
		node: make(map[string]text.ID),
		edge: make(map[string]map[string]text.ID),
	}
	for id := 0; id < v.Len(); id++ {
		tok := v.Token(text.ID(id))
		if w, ok := strings.CutPrefix(tok, "w:"); ok {
			ix.word[w] = text.ID(id)
		} else if label, ok := strings.CutPrefix(tok, "n:"); ok {
			ix.node[label] = text.ID(id)
		} else if e, ok := strings.CutPrefix(tok, "e:"); ok {
			for i := 0; i < len(e); i++ {
				if e[i] != '>' {
					continue
				}
				children := ix.edge[e[:i]]
				if children == nil {
					children = make(map[string]text.ID)
					ix.edge[e[:i]] = children
				}
				children[e[i+1:]] = text.ID(id)
			}
		}
	}
	return ix
}
