// Package whirl implements the nearest-neighbour classification model
// of Cohen and Hirsh's WHIRL, which the paper's name matcher and
// content matcher are built on (§3.3): training examples are stored as
// TF/IDF vectors, and a new instance is labelled from the labels of the
// stored examples within a similarity distance of it, combined with a
// noisy-or.
//
// Representation: the store lives entirely in the interned-id
// coordinate system of the training corpus. The inverted index is a
// flat postings table — postings[id] lists (docID, weight) pairs — so
// similarity accumulation walks contiguous slices and never chases a
// per-document map. Scores accumulate into a reusable dense []float64
// scratch buffer indexed by docID; the query's terms are visited in
// ascending-id order, so every similarity sums its float terms in a
// canonical order fixed at training time and the output is
// bit-identical on every run without per-call sorting.
package whirl

import (
	"fmt"
	"slices"

	"repro/internal/learn"
	"repro/internal/memo"
	"repro/internal/pool"
	"repro/internal/text"
)

// Extractor maps an instance to the text the classifier vectorizes.
// The name matcher extracts the expanded tag name; the content matcher
// extracts the data content.
type Extractor func(learn.Instance) string

// Config tunes a Classifier.
type Config struct {
	// MinSimilarity is the δ threshold of §3.3: stored examples whose
	// cosine similarity falls at or below it are ignored.
	MinSimilarity float64
	// MaxNeighbors caps how many nearest stored examples contribute.
	// Zero means all neighbours within the threshold.
	MaxNeighbors int
	// Smoothing is added to every label score before normalization so
	// no label is ever ruled out entirely.
	Smoothing float64
}

// DefaultConfig matches the behaviour described in the paper: consider
// every stored example with positive similarity, lightly smoothed.
func DefaultConfig() Config {
	return Config{MinSimilarity: 0, MaxNeighbors: 30, Smoothing: 0.01}
}

// posting is one inverted-index entry: a stored document that contains
// the token, with the token's TF/IDF weight in that document inlined so
// accumulation needs no second lookup.
type posting struct {
	doc int32
	w   float64
}

// Classifier is a WHIRL-style TF/IDF nearest-neighbour classifier.
// Lookups run against an inverted index (token id → postings), so a
// prediction touches only stored examples that share a token with the
// query instead of the whole store.
type Classifier struct {
	name    string
	extract Extractor
	cfg     Config
	labels  *learn.Labels
	corpus  *text.Corpus
	// postings is the inverted index, indexed by token id; each posting
	// list is ordered by ascending doc id (training order).
	postings [][]posting
	// docLabels maps each stored document to its label's id in
	// labels.
	docLabels []int32
	// scratch pools the dense similarity buffers predicts accumulate
	// into — one row per stored document for a single query, one row
	// per query document for a batch chunk — so steady-state prediction
	// allocates nothing for scoring.
	scratch pool.Floats
	// cache memoizes predictions by extracted text: name-matcher inputs
	// repeat once per column instance, so hit rates are very high.
	// Entries are pure functions of the frozen model, so losing a
	// concurrent insert only costs a recomputation, never determinism.
	cache *memo.Table[learn.Prediction]
}

// New returns an untrained classifier. name identifies it in reports;
// extract selects the instance text.
func New(name string, extract Extractor, cfg Config) *Classifier {
	return &Classifier{
		name:    name,
		extract: extract,
		cfg:     cfg,
		cache:   new(memo.Table[learn.Prediction]),
	}
}

// Name implements learn.Learner.
func (c *Classifier) Name() string { return c.name }

// Train stores the TF/IDF vectors of all training examples (§3.3: "the
// name matcher stores all training examples ... it has seen so far").
func (c *Classifier) Train(labels []string, examples []learn.Example) error {
	if len(labels) == 0 {
		return fmt.Errorf("whirl: no labels")
	}
	c.labels = learn.LabelsOf(labels)
	// Deduplicate by (extracted text, label): a source contributes one
	// identical example per listing, and the noisy-or combination must
	// count distinct pieces of evidence, not copies — otherwise forty
	// identical partial matches saturate the score to certainty.
	type docKey struct{ text, label string }
	seen := make(map[docKey]bool, len(examples))
	var texts []string
	var docLabels []int32
	for _, ex := range examples {
		k := docKey{c.extract(ex.Instance), ex.Label}
		if seen[k] {
			continue
		}
		seen[k] = true
		texts = append(texts, k.text)
		li, ok := c.labels.ID(k.label)
		if !ok {
			return fmt.Errorf("whirl: example labelled %q outside label set", k.label)
		}
		docLabels = append(docLabels, int32(li))
	}
	c.corpus = text.NewCorpus()
	bags := make([]text.Bag, len(texts))
	for i, txt := range texts {
		bags[i] = text.NewBag(text.TokenizeStemStop(txt))
		c.corpus.AddDocument(bags[i])
	}
	c.corpus.Freeze()
	// A fresh cache: no prediction of the previous model may be served.
	// Train happens before any concurrent Predict.
	c.cache = new(memo.Table[learn.Prediction])
	c.docLabels = docLabels
	c.postings = make([][]posting, c.corpus.Vocab().Len())
	for i := range texts {
		vec := c.corpus.Vectorize(bags[i])
		// Every token was interned during AddDocument, so vec has no
		// out-of-vocabulary terms. Docs are processed in ascending order,
		// so each posting list stays sorted by doc id.
		for _, term := range vec.Terms {
			c.postings[term.ID] = append(c.postings[term.ID], posting{doc: int32(i), w: term.W})
		}
	}
	return nil
}

// Predict computes the similarity of the instance to every stored
// example and combines the similarities of the qualifying neighbours
// per label with a noisy-or: s(c) = 1 − Π(1 − simᵢ). Scores are
// smoothed and normalized to a confidence distribution. The returned
// prediction may be shared with the classifier's cache and other
// callers; callers must treat it as read-only.
//
// lint:hot
func (c *Classifier) Predict(in learn.Instance) learn.Prediction {
	extracted := c.extract(in)
	if p, ok := c.cache.Get(extracted); ok {
		return p
	}
	p := c.predict(extracted)
	if c.corpus != nil {
		c.cache.Put(extracted, p)
	}
	return p
}

// maxBatchRows bounds the dense chunk matrix PredictBatch scores into
// (rows × stored documents floats), so a very large batch is scored
// in bounded-memory chunks.
const maxBatchRows = 64

// PredictBatch implements learn.BatchPredictor: the whole batch is
// deduplicated by extracted text, cache misses are scored in chunks
// by one merged pass over the shared postings table, and duplicate
// instances share one prediction (read-only by the Predict contract).
// Per instance the result is bit-identical to Predict: predictChunk
// accumulates each query row's float terms in exactly the
// per-instance order, and scoring goes through the same scoreSims.
//
// lint:hot
func (c *Classifier) PredictBatch(ins []learn.Instance) []learn.Prediction {
	out := make([]learn.Prediction, len(ins))
	if len(ins) == 0 {
		return out
	}
	if c.corpus == nil || len(c.docLabels) == 0 {
		// Untrained fallback: every instance gets the same smoothed
		// near-uniform prediction; compute it once and share it.
		p := c.predictUntrained()
		for i := range out {
			out[i] = p
		}
		return out
	}
	// Dedup by extracted text and resolve cache hits; only distinct
	// misses reach the batched scoring pass.
	//lint:ignore hotalloc the per-batch dedup index replaces a full model walk per duplicate instance; one map per batch is the cheap side of that trade
	idx := make(map[string]int, len(ins))
	pos := make([]int, len(ins))
	uniqPreds := make([]learn.Prediction, 0, len(ins))
	missTexts := make([]string, 0, len(ins))
	missSlots := make([]int, 0, len(ins))
	for i, in := range ins {
		extracted := c.extract(in)
		u, ok := idx[extracted]
		if !ok {
			u = len(uniqPreds)
			idx[extracted] = u
			p, hit := c.cache.Get(extracted)
			uniqPreds = append(uniqPreds, p) // empty placeholder on miss
			if !hit {
				missTexts = append(missTexts, extracted)
				missSlots = append(missSlots, u)
			}
		}
		pos[i] = u
	}
	for start := 0; start < len(missTexts); start += maxBatchRows {
		end := min(start+maxBatchRows, len(missTexts))
		c.predictChunk(missTexts[start:end], uniqPreds, missSlots[start:end])
	}
	for k, txt := range missTexts {
		c.cache.Put(txt, uniqPreds[missSlots[k]])
	}
	for i := range ins {
		out[i] = uniqPreds[pos[i]]
	}
	return out
}

// qterm is one query-term occurrence in a chunk's merged term list:
// token id, chunk-row index, query TF/IDF weight.
type qterm struct {
	id text.ID
	q  int32
	w  float64
}

// predictChunk scores one chunk of extracted texts with a single
// merged traversal of the postings table, writing the prediction for
// texts[k] into preds[slots[k]]. All chunk queries' terms are merged
// and sorted by (token id, row): walking that list visits each needed
// posting list once per querying row, ids ascending — so each row's
// accumulation order is exactly the per-instance predict order and
// the results are bit-identical to Predict's.
func (c *Classifier) predictChunk(texts []string, preds []learn.Prediction, slots []int) {
	nd := len(c.docLabels)
	terms := make([]qterm, 0, 16*len(texts))
	for qi, txt := range texts {
		vec := c.corpus.Vectorize(text.NewBag(text.TokenizeStemStop(txt)))
		// Out-of-vocabulary terms have no postings and contribute only
		// to the query norm (inside Vectorize), exactly as per-instance.
		for _, tm := range vec.Terms {
			terms = append(terms, qterm{id: tm.ID, q: int32(qi), w: tm.W})
		}
	}
	// (id, q) is a total key — Vectorize merges duplicate tokens — so
	// the unstable sort has no equal elements to reorder.
	slices.SortFunc(terms, func(a, b qterm) int {
		if a.id != b.id {
			if a.id < b.id {
				return -1
			}
			return 1
		}
		return int(a.q) - int(b.q)
	})
	// Dense row-major similarity matrix: one row of nd document slots
	// per chunk query, pooled and zeroed like the single-query buffer.
	sims := c.scratch.Get(len(texts) * nd)
	for i := 0; i < len(terms); {
		id := terms[i].id
		j := i + 1
		for j < len(terms) && terms[j].id == id {
			j++
		}
		if plist := c.postings[id]; len(plist) > 0 {
			for k := i; k < j; k++ {
				off := int(terms[k].q) * nd
				w := terms[k].w
				for _, pst := range plist {
					sims[off+int(pst.doc)] += w * pst.w
				}
			}
		}
		i = j
	}
	for qi := range texts {
		preds[slots[qi]] = c.scoreSims(sims[qi*nd : (qi+1)*nd])
	}
	c.scratch.Put(sims)
}

// predict computes the normalized prediction for one extracted text.
func (c *Classifier) predict(extracted string) learn.Prediction {
	if c.corpus == nil || len(c.docLabels) == 0 {
		return c.predictUntrained()
	}
	q := c.corpus.Vectorize(text.NewBag(text.TokenizeStemStop(extracted)))

	// Accumulate dot products over the inverted index into the dense
	// scratch buffer: only stored examples sharing at least one token
	// with the query can have a non-zero similarity. Query terms are
	// sorted by ascending id (Vectorize's canonical order), so each
	// document's similarity sums its terms identically on every run.
	// Out-of-vocabulary query terms have no postings and contribute
	// only to the query norm, exactly as in the map representation.
	sims := c.scratch.Get(len(c.docLabels))
	for _, term := range q.Terms {
		for _, pst := range c.postings[term.ID] {
			sims[pst.doc] += term.W * pst.w
		}
	}
	p := c.scoreSims(sims)
	c.scratch.Put(sims)
	return p
}

// predictUntrained is the fallback for a classifier with no stored
// examples: smoothing only, normalized to uniform.
func (c *Classifier) predictUntrained() learn.Prediction {
	p := learn.NewPrediction(c.labels)
	scores := p.Scores()
	for li := range scores {
		scores[li] = c.cfg.Smoothing
	}
	return p.Normalize()
}

// scoreSims turns one dense similarity row (one slot per stored
// document) into a normalized prediction: threshold, rank, cut to
// MaxNeighbors, noisy-or per label, smooth, normalize. Both the
// per-instance and the batched path end here, which is what makes
// their results structurally bit-identical.
func (c *Classifier) scoreSims(sims []float64) learn.Prediction {
	type neighbor struct {
		sim float64
		li  int32
		idx int32
	}
	// Stack buffer for the common case; spills to the heap only when
	// more than 64 stored examples pass the threshold.
	var nbuf [64]neighbor
	neighbors := nbuf[:0]
	for doc, sim := range sims {
		// sim > 0 selects exactly the documents sharing a token (all
		// weights are positive), keeping the δ comparison semantics of
		// the sparse accumulator even for a negative threshold.
		if sim > 0 && sim > c.cfg.MinSimilarity {
			neighbors = append(neighbors, neighbor{sim, c.docLabels[doc], int32(doc)})
		}
	}
	// Order the neighbours by decreasing similarity for the MaxNeighbors
	// cut; ties break by label index then doc id so the order — and the
	// noisy-or product order below — is total and deterministic.
	slices.SortFunc(neighbors, func(a, b neighbor) int {
		switch {
		case a.sim > b.sim:
			return -1
		case a.sim < b.sim:
			return 1
		case a.li != b.li:
			return int(a.li) - int(b.li)
		}
		return int(a.idx) - int(b.idx)
	})
	if k := c.cfg.MaxNeighbors; k > 0 && len(neighbors) > k {
		// Only the k nearest neighbours contribute.
		neighbors = neighbors[:k]
	}
	// Noisy-or per label: each score slot first accumulates the product
	// Π(1 − simᵢ) of its label's neighbours, then becomes the smoothed
	// 1 − product.
	p := learn.NewPrediction(c.labels)
	scores := p.Scores()
	for li := range scores {
		scores[li] = 1
	}
	for _, n := range neighbors {
		scores[n.li] *= 1 - n.sim
	}
	for li, oneMinus := range scores {
		scores[li] = c.cfg.Smoothing + (1 - oneMinus)
	}
	return p.Normalize()
}

// NumStored returns how many training examples the classifier holds.
func (c *Classifier) NumStored() int { return len(c.docLabels) }
