// Package naivebayes implements the Naive Bayes text classifier of
// §3.3: each input instance is a bag of tokens produced by parsing and
// stemming the words and symbols in the instance; the learner assigns
// d = {w1..wk} to the class maximizing P(c)·ΠP(wj|c), with P(wj|c)
// estimated as n(wj,c)/n(c) under Laplace smoothing. It works best when
// tokens are strongly indicative of the label by virtue of their
// frequencies ("beautiful", "great" in house descriptions), and poorly
// on short or numeric fields.
//
// Representation: training interns every token into a text.Vocab and
// precomputes, per label, a dense log-probability table indexed by
// token id — log((n(w,c)+1)/denom_c) — plus one unseen-token constant
// log(1/denom_c) and the log class prior. PredictBag is then pure
// fused multiply-adds over the instance's sparse (id, count) bag; no
// map lookups, no math.Log, and no sorting on the predict path. The
// summation runs in ascending-id order, a canonical order fixed at
// training time, so determinism needs no per-call workarounds.
package naivebayes

import (
	"fmt"
	"math"

	"repro/internal/learn"
	"repro/internal/pool"
	"repro/internal/text"
)

// Learner is a multinomial Naive Bayes classifier over stemmed tokens.
type Learner struct {
	labels *learn.Labels
	vocab  *text.Vocab
	// logProb[li][id] = log((n(w,c)+1)/(n(c)+|V|)): the Laplace-smoothed
	// log-likelihood of token id under label li, precomputed at Train.
	logProb [][]float64
	// unseenLog[li] = log(1/(n(c)+|V|)): the contribution of any token
	// the vocabulary does not contain (or, equivalently, an interned
	// token with zero count — the table already stores that case).
	unseenLog []float64
	// prior[li] = log((docCount(c)+1)/(numDocs+|labels|)).
	prior   []float64
	numDocs float64
	// scratch pools the dense per-batch log-score matrices PredictBatch
	// sweeps into (unique instances × labels), so batched scoring
	// allocates nothing beyond the result vectors.
	scratch pool.Floats
}

// New returns an untrained Naive Bayes learner.
func New() *Learner { return &Learner{} }

// Factory is a learn.Factory for the Naive Bayes learner.
func Factory() learn.Learner { return New() }

// Name implements learn.Learner.
func (l *Learner) Name() string { return "NaiveBayes" }

// Tokens returns the bag of tokens NB derives from an instance: the
// stemmed words and symbols of its data content. Exposed so the XML
// learner can reuse the identical token pipeline for its text tokens.
func Tokens(content string) []string {
	return text.TokenizeAndStem(content)
}

// counts accumulates the sufficient statistics of training:
// tokenCount[li][id] = n(w,c) (ragged, grown as the vocabulary grows),
// totalCount[li] = n(c), docCount[li] = training instances labelled c.
type counts struct {
	tokenCount [][]float64
	totalCount []float64
	docCount   []float64
}

func (l *Learner) reset(labels []string) *counts {
	l.labels = learn.LabelsOf(labels)
	l.vocab = text.NewVocab()
	return &counts{
		tokenCount: make([][]float64, len(labels)),
		totalCount: make([]float64, len(labels)),
		docCount:   make([]float64, len(labels)),
	}
}

// addToken records one occurrence batch of an interned token. The
// per-label count slices grow lazily with the vocabulary.
func (cs *counts) addToken(li int, id text.ID, n float64) {
	row := cs.tokenCount[li]
	for int(id) >= len(row) {
		row = append(row, 0)
	}
	row[int(id)] += n
	cs.tokenCount[li] = row
	cs.totalCount[li] += n
}

// finalize turns the raw counts into the predict-path tables.
func (l *Learner) finalize(cs *counts) {
	vocabSize := float64(l.vocab.Len())
	if vocabSize == 0 {
		vocabSize = 1
	}
	k := l.labels.Len()
	l.logProb = make([][]float64, k)
	l.unseenLog = make([]float64, k)
	l.prior = make([]float64, k)
	for li := 0; li < k; li++ {
		denom := cs.totalCount[li] + vocabSize
		logDenom := math.Log(denom)
		table := make([]float64, l.vocab.Len())
		row := cs.tokenCount[li]
		for id := range table {
			n := 0.0
			if id < len(row) {
				n = row[id]
			}
			table[id] = math.Log(n+1) - logDenom
		}
		l.logProb[li] = table
		l.unseenLog[li] = -logDenom
		// Laplace-smoothed class prior: labels absent from training
		// keep a small non-zero probability.
		l.prior[li] = math.Log((cs.docCount[li] + 1) / (l.numDocs + float64(k)))
	}
}

// Train estimates P(c) and P(w|c) from the examples. Tokens are
// interned in example-stream order — deterministic, because the
// example slice and the tokenizer are.
func (l *Learner) Train(labels []string, examples []learn.Example) error {
	if len(labels) == 0 {
		return fmt.Errorf("naivebayes: no labels")
	}
	cs := l.reset(labels)
	l.numDocs = float64(len(examples))
	for _, ex := range examples {
		li, ok := l.labels.ID(ex.Label)
		if !ok {
			return fmt.Errorf("naivebayes: example labelled %q outside label set", ex.Label)
		}
		cs.docCount[li]++
		for _, w := range Tokens(ex.Instance.Content) {
			cs.addToken(li, l.vocab.Intern(w), 1)
		}
	}
	l.finalize(cs)
	return nil
}

// TrainBags fits the model directly from per-example token bags. The
// XML learner uses this entry point with its structural token bags.
// Bags are maps, so tokens are interned in sorted bag order to keep id
// assignment deterministic.
func (l *Learner) TrainBags(labels []string, bags []text.Bag, bagLabels []string) error {
	if len(bags) != len(bagLabels) {
		return fmt.Errorf("naivebayes: %d bags but %d labels", len(bags), len(bagLabels))
	}
	cs := l.reset(labels)
	l.numDocs = float64(len(bags))
	for i, bag := range bags {
		li, ok := l.labels.ID(bagLabels[i])
		if !ok {
			return fmt.Errorf("naivebayes: bag labelled %q outside label set", bagLabels[i])
		}
		cs.docCount[li]++
		for _, w := range bag.Tokens() {
			cs.addToken(li, l.vocab.Intern(w), float64(bag[w]))
		}
	}
	l.finalize(cs)
	return nil
}

// Predict computes the posterior distribution over labels for the
// instance's content.
//
// lint:hot
func (l *Learner) Predict(in learn.Instance) learn.Prediction {
	return l.PredictBag(text.NewBag(Tokens(in.Content)))
}

// PredictBatch implements learn.BatchPredictor: the batch is
// deduplicated by content (a column's values repeat across listings),
// each distinct content is tokenized and projected to a sparse bag
// once, and scoring runs as one fused sweep per label over the
// precomputed log-probability tables instead of one table walk per
// instance. Every scalar log score sums exactly the terms PredictBag
// sums, in the same order (prior, ascending-id terms, then the OOV
// constant), and the softmax/Normalize per instance is unchanged, so
// each result is bit-identical to Predict's. Duplicate instances
// share one prediction (read-only by the Predict contract).
//
// lint:hot
func (l *Learner) PredictBatch(ins []learn.Instance) []learn.Prediction {
	out := make([]learn.Prediction, len(ins))
	if len(ins) == 0 {
		return out
	}
	if l.numDocs == 0 {
		// Untrained fallback, shared across the batch: Uniform is a pure
		// function of the label set.
		u := learn.Uniform(l.labels)
		for i := range out {
			out[i] = u
		}
		return out
	}
	//lint:ignore hotalloc the per-batch dedup index replaces a tokenize+table-walk per duplicate instance; one map per batch is the cheap side of that trade
	idx := make(map[string]int, len(ins))
	pos := make([]int, len(ins))
	bags := make([]text.SparseBag, 0, len(ins))
	for i, in := range ins {
		u, ok := idx[in.Content]
		if !ok {
			u = len(bags)
			idx[in.Content] = u
			bags = append(bags, l.vocab.SparseBag(text.NewBag(Tokens(in.Content))))
		}
		pos[i] = u
	}
	k := l.labels.Len()
	nu := len(bags)
	// Row-major log-score matrix: lps[u*k+li] is instance u's log score
	// under label li. The label-outer sweep touches each precomputed
	// table once for the whole batch.
	lps := l.scratch.Get(nu * k)
	for li := 0; li < k; li++ {
		prior := l.prior[li]
		table := l.logProb[li]
		unseen := l.unseenLog[li]
		for u := range bags {
			lp := prior
			for _, tc := range bags[u].Terms {
				lp += float64(tc.N) * table[tc.ID]
			}
			lps[u*k+li] = lp + float64(bags[u].OOV)*unseen
		}
	}
	uniq := make([]learn.Prediction, nu)
	for u := 0; u < nu; u++ {
		off := u * k
		maxLog := math.Inf(-1)
		for li := 0; li < k; li++ {
			if lps[off+li] > maxLog {
				maxLog = lps[off+li]
			}
		}
		p := learn.NewPrediction(l.labels)
		scores := p.Scores()
		for li := range scores {
			scores[li] = math.Exp(lps[off+li] - maxLog)
		}
		uniq[u] = p.Normalize()
	}
	l.scratch.Put(lps)
	for i := range ins {
		out[i] = uniq[pos[i]]
	}
	return out
}

// PredictBag computes the posterior for an explicit token bag: the
// bag projected onto the vocabulary and scored by PredictSparse.
func (l *Learner) PredictBag(bag text.Bag) learn.Prediction {
	if l.numDocs == 0 {
		return learn.Uniform(l.labels)
	}
	return l.PredictSparse(l.vocab.SparseBag(bag))
}

// PredictSparse computes the posterior for a bag already projected
// onto the vocabulary (ids ascending, as Vocab.SparseBag returns
// them). Arithmetic is in log space over the precomputed tables; each
// label's score sums the prior, the terms in ascending-id order, then
// the OOV constant, and is soft-maxed back to a normalized confidence
// distribution.
func (l *Learner) PredictSparse(sb text.SparseBag) learn.Prediction {
	if l.numDocs == 0 {
		return learn.Uniform(l.labels)
	}
	// Each score slot holds its label's log score until the soft-max
	// below turns it into a likelihood ratio.
	p := learn.NewPrediction(l.labels)
	scores := p.Scores()
	maxLog := math.Inf(-1)
	for li := range scores {
		lp := l.prior[li]
		table := l.logProb[li]
		for _, tc := range sb.Terms {
			lp += float64(tc.N) * table[tc.ID]
		}
		lp += float64(sb.OOV) * l.unseenLog[li]
		scores[li] = lp
		if lp > maxLog {
			maxLog = lp
		}
	}
	for li, lp := range scores {
		scores[li] = math.Exp(lp - maxLog)
	}
	return p.Normalize()
}

// Vocab returns the trained vocabulary, nil before training. It is
// read-only: the XML learner indexes its structural tokens by it.
func (l *Learner) Vocab() *text.Vocab { return l.vocab }

// LogLikelihood returns log P(bag|c) + log P(c) for diagnostics. An
// unknown label gets the likelihood of a label never seen in training.
func (l *Learner) LogLikelihood(bag text.Bag, c string) float64 {
	if l.numDocs == 0 {
		return 0
	}
	li, ok := l.labels.ID(c)
	if !ok {
		return 0
	}
	sb := l.vocab.SparseBag(bag)
	lp := l.prior[li]
	table := l.logProb[li]
	for _, tc := range sb.Terms {
		lp += float64(tc.N) * table[tc.ID]
	}
	return lp + float64(sb.OOV)*l.unseenLog[li]
}
