package core

import (
	"context"

	"repro/internal/learn"
	"repro/internal/learners/xmllearner"
	"repro/internal/memo"
	"repro/internal/meta"
	"repro/internal/parallel"
	"repro/internal/pool"
	"repro/internal/xmltree"
)

// predScratch pools the per-instance base-prediction rows the stackers
// combine, so scoring allocates O(1) pooled rows per column instead of
// one row per instance.
var predScratch pool.Preds

// column is one tag's batch deduplicated against itself and the
// combined memo: the unit both scoring passes work on.
type column struct {
	pos   []int              // batch position → unique slot
	keys  []string           // unique slot → combined-memo key
	preds []learn.Prediction // unique slot → combined prediction
	miss  []int              // the unique slots the memo lacked
	ins   []learn.Instance   // their instances, aligned with miss
}

// pass1Result is one column's output of the first scoring pass.
type pass1Result struct {
	// base holds learner j's predictions of the misses; nil for the
	// XML learners, which run in the second pass.
	base [][]learn.Prediction
	// labels are the interim labels of the column's sub-element misses.
	labels []keyedLabel
}

// keyedLabel is a sub-element's interim label under its label-memo key.
type keyedLabel struct{ key, label string }

// score scores every tag's batch in two passes over the tags whose
// columns miss the combined memo. The first runs the non-XML learners,
// batched, on each column's misses and derives every sub-element
// miss's interim label from those same predictions. The labels go into
// the labeler's memo, and the second pass runs the XML learners, which
// read them there instead of predicting each sub-element again, and
// then the final stacker.
//
// Duplicate instances — a column's values repeat across listings — are
// scored once and share the prediction, which is read-only by the
// Predict contract. Values seen in earlier requests come out of the
// combined memo without touching any learner, so a request whose
// values all hit the memo fans out zero times. Memo reads and writes
// happen here, on the request goroutine; the workers only compute.
func (s *System) score(ctx context.Context, batches [][]learn.Instance) ([][]learn.Prediction, error) {
	cols := make([]column, len(batches))
	var todo []int
	for ti, batch := range batches {
		cols[ti] = s.lookup(batch)
		if len(cols[ti].miss) > 0 {
			todo = append(todo, ti)
		}
	}
	if len(todo) > 0 {
		first, err := parallel.Map(ctx, s.cfg.Workers, len(todo),
			func(_ context.Context, k int) (pass1Result, error) {
				return s.pass1(&cols[todo[k]]), nil
			})
		if err != nil {
			return nil, err
		}
		for _, fp := range first {
			for _, kl := range fp.labels {
				s.labeler.cache.Put(kl.key, kl.label)
			}
		}
		final, err := parallel.Map(ctx, s.cfg.Workers, len(todo),
			func(_ context.Context, k int) ([]learn.Prediction, error) {
				return s.pass2(cols[todo[k]].ins, first[k].base), nil
			})
		if err != nil {
			return nil, err
		}
		for k, ti := range todo {
			c := &cols[ti]
			for m, u := range c.miss {
				c.preds[u] = final[k][m]
				s.combined.Put(c.keys[u], final[k][m])
			}
		}
	}
	out := make([][]learn.Prediction, len(batches))
	for ti, c := range cols {
		out[ti] = make([]learn.Prediction, len(c.pos))
		for i, u := range c.pos {
			out[ti][i] = c.preds[u]
		}
	}
	return out, nil
}

// lookup deduplicates one tag's batch and reads the combined memo.
// Leaf and text-only instances key on (tag, path, content), which
// covers every feature any learner reads (see instanceKey); interior
// nodes key on their full serialized subtree (see interiorKey).
func (s *System) lookup(batch []learn.Instance) column {
	c := column{
		pos:   make([]int, len(batch)),
		keys:  make([]string, 0, len(batch)),
		preds: make([]learn.Prediction, 0, len(batch)),
	}
	idx := make(map[string]int, len(batch))
	for i, in := range batch {
		var key string
		if in.Node != nil && !in.Node.IsLeaf() {
			key = interiorKey(in.Path, in.Node)
		} else {
			key = instanceKey(in.TagName, in.Path, in.Content)
		}
		u, ok := idx[key]
		if !ok {
			u = len(c.keys)
			idx[key] = u
			p, hit := s.combined.Get(key)
			c.keys = append(c.keys, key)
			c.preds = append(c.preds, p)
			if !hit {
				c.miss = append(c.miss, u)
				c.ins = append(c.ins, in)
			}
		}
		c.pos[i] = u
	}
	return c
}

// isXML reports whether learner j is an XML learner, which runs in the
// second pass.
func (s *System) isXML(j int) bool {
	_, ok := s.learners[j].(*xmllearner.Learner)
	return ok
}

// pass1 runs the non-XML learners on a column's misses, each through
// learn.PredictAll, and labels the sub-elements among them.
func (s *System) pass1(c *column) pass1Result {
	r := pass1Result{base: make([][]learn.Prediction, len(s.learners))}
	for j, l := range s.learners {
		if !s.isXML(j) {
			r.base[j] = learn.PredictAll(l, c.ins)
		}
	}
	if s.labeler != nil {
		r.labels = s.labelSubElements(c, r.base)
	}
	return r
}

// labelSubElements derives the interim label of every sub-element
// among a column's misses: the interim stacker's best label over the
// interim learners' predictions, exactly as the labeler's LabelNode
// derives it. Interim learner j reuses the first pass's predictions
// when it is the system's learner j; any other interim learner
// predicts the misses itself. Listing roots and name-only instances
// are never sub-elements, so they need no label.
func (s *System) labelSubElements(c *column, base [][]learn.Prediction) []keyedLabel {
	e := s.labeler
	interim := make([][]learn.Prediction, len(e.learners))
	for j, l := range e.learners {
		if j < len(s.learners) && !s.isXML(j) && l == s.learners[j] {
			interim[j] = base[j]
		} else {
			interim[j] = learn.PredictAll(l, c.ins)
		}
	}
	row := predScratch.Get(len(e.learners))
	out := make([]keyedLabel, 0, len(c.ins))
	for i, in := range c.ins {
		if in.Node == nil || len(in.Path) < 2 {
			continue
		}
		for j := range row {
			row[j] = interim[j][i]
		}
		key := c.keys[c.miss[i]]
		if !in.Node.IsLeaf() {
			// An interior node's combined-memo key is its subtree; the
			// labeler keys it like a leaf.
			key = instanceKey(in.TagName, in.Path, in.Content)
		}
		out = append(out, keyedLabel{key: key, label: e.label(row)})
	}
	predScratch.Put(row)
	return out
}

// pass2 runs the XML learners on a column's misses and stacks every
// learner's predictions; base holds the first pass's.
func (s *System) pass2(ins []learn.Instance, base [][]learn.Prediction) []learn.Prediction {
	all := make([][]learn.Prediction, len(s.learners))
	for j, l := range s.learners {
		if s.isXML(j) {
			all[j] = learn.PredictAll(l, ins)
		} else {
			all[j] = base[j]
		}
	}
	row := predScratch.Get(len(s.learners))
	out := make([]learn.Prediction, len(ins))
	for i := range ins {
		for j := range row {
			row[j] = all[j][i]
		}
		out[i] = s.stacker.Combine(row)
	}
	predScratch.Put(row)
	return out
}

// ensembleLabeler labels a node with the best combined prediction of a
// set of trained learners — the "LSD with other base learners" oracle
// the XML learner consults for sub-element labels. The labeler is
// fixed once trained, so labels memoize in a bounded cache keyed by
// the textual instance key (tag, path, content), shared across
// cross-validation folds, listings and serve requests. Match fills the
// cache from its own predictions before the XML learner runs (see
// score); LabelNode predicts a label itself during training and for a
// sub-element whose label the cache has dropped.
type ensembleLabeler struct {
	mediated *Mediated
	learners []learn.Learner
	stacker  *meta.Stacker
	cache    memo.Table[string]
}

// LabelNode implements xmllearner.NodeLabeler.
func (e *ensembleLabeler) LabelNode(n *xmltree.Node, path []string) string {
	content := n.Content()
	key := instanceKey(n.Tag, path, content)
	if label, ok := e.cache.Get(key); ok {
		return label
	}
	in := learn.Instance{
		TagName:  n.Tag,
		Path:     append([]string(nil), path...),
		Synonyms: tagSynonyms(e.mediated, n.Tag),
		Content:  content,
		Node:     n,
	}
	preds := make([]learn.Prediction, len(e.learners))
	for i, l := range e.learners {
		preds[i] = l.Predict(in)
	}
	label := e.label(preds)
	e.cache.Put(key, label)
	return label
}

// label returns the interim stacker's best label over one instance's
// interim predictions, OTHER when it has none.
func (e *ensembleLabeler) label(preds []learn.Prediction) string {
	best, _ := e.stacker.Combine(preds).Best()
	if best == "" {
		best = learn.Other
	}
	return best
}
