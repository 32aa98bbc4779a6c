package whirl

// Serialization support: a trained Classifier is immutable after Train
// (frozen corpus, fixed postings), so its state round-trips through a
// model artifact as plain data. The extractor is the one part that is
// code, not data — Restore takes it from the caller (the name and
// content matcher packages each supply theirs), keyed by the
// classifier's recorded name.

import (
	"fmt"

	"repro/internal/learn"
	"repro/internal/text"
)

// Posting is the serializable form of one inverted-index entry.
type Posting struct {
	Doc int32
	W   float64
}

// State is the serializable view of a trained Classifier.
type State struct {
	Name   string
	Config Config
	Labels []string
	Corpus text.CorpusState
	// DocLabels maps each stored document to its label index.
	DocLabels []int32
	// Postings is the inverted index in vocabulary-id order; it must
	// align one-to-one with Corpus.Tokens.
	Postings [][]Posting
}

// State snapshots the classifier. It returns nil on an untrained
// classifier: there is no corpus coordinate system to serialize.
func (c *Classifier) State() *State {
	if c.corpus == nil {
		return nil
	}
	st := &State{
		Name:      c.name,
		Config:    c.cfg,
		Labels:    append([]string(nil), c.labels.Names()...),
		Corpus:    c.corpus.State(),
		DocLabels: append([]int32(nil), c.docLabels...),
		Postings:  make([][]Posting, len(c.postings)),
	}
	for id, list := range c.postings {
		out := make([]Posting, len(list))
		for i, p := range list {
			out[i] = Posting{Doc: p.doc, W: p.w}
		}
		st.Postings[id] = out
	}
	return st
}

// Restore rebuilds a trained classifier from a snapshot, wiring in the
// extractor the state cannot carry. Every cross-reference is validated
// — posting lists align with the vocabulary, document ids stay inside
// the store, label indices inside the label set — so a corrupted
// artifact fails here instead of panicking on the first Predict.
func Restore(st *State, extract Extractor) (*Classifier, error) {
	if st == nil {
		return nil, fmt.Errorf("whirl: nil state")
	}
	if extract == nil {
		return nil, fmt.Errorf("whirl: nil extractor")
	}
	if len(st.Labels) == 0 {
		return nil, fmt.Errorf("whirl: state has no labels")
	}
	corpus, err := text.RestoreCorpus(st.Corpus)
	if err != nil {
		return nil, fmt.Errorf("whirl: %w", err)
	}
	if len(st.Postings) != corpus.Vocab().Len() {
		return nil, fmt.Errorf("whirl: %d posting lists for %d tokens", len(st.Postings), corpus.Vocab().Len())
	}
	numDocs := len(st.DocLabels)
	for _, li := range st.DocLabels {
		if li < 0 || int(li) >= len(st.Labels) {
			return nil, fmt.Errorf("whirl: document label index %d outside %d labels", li, len(st.Labels))
		}
	}
	c := New(st.Name, extract, st.Config)
	c.labels = learn.LabelsOf(st.Labels)
	c.corpus = corpus
	c.docLabels = append([]int32(nil), st.DocLabels...)
	c.postings = make([][]posting, len(st.Postings))
	for id, list := range st.Postings {
		out := make([]posting, len(list))
		prev := int32(-1)
		for i, p := range list {
			if p.Doc < 0 || int(p.Doc) >= numDocs {
				return nil, fmt.Errorf("whirl: posting references document %d of %d", p.Doc, numDocs)
			}
			if p.Doc <= prev {
				return nil, fmt.Errorf("whirl: posting list %d not in ascending document order", id)
			}
			prev = p.Doc
			out[i] = posting{doc: p.Doc, w: p.W}
		}
		c.postings[id] = out
	}
	return c, nil
}
