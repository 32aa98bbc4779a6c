package core

import (
	"context"
	"slices"

	"repro/internal/learn"
	"repro/internal/learners/xmllearner"
	"repro/internal/parallel"
	"repro/internal/pool"
	"repro/internal/xmltree"
)

// predScratch pools the per-instance base-prediction rows the stackers
// combine, so scoring allocates O(1) pooled rows per column instead of
// one row per instance.
var predScratch pool.Preds

// entry is one combined-memo value: an instance's combined prediction
// and, for a sub-element of a system that labels them, its interim
// label. Both are pure functions of the instance key.
type entry struct {
	pred  learn.Prediction
	label string
}

// column is one tag's batch deduplicated against itself and the
// combined memo: the unit both scoring passes work on.
type column struct {
	pos     []int            // batch position → unique slot
	keys    []string         // unique slot → combined-memo key
	entries []entry          // unique slot → combined prediction and label
	miss    []int            // the unique slots the memo lacked
	ins     []learn.Instance // their instances, aligned with miss
}

// pass1Result is one column's output of the first scoring pass.
type pass1Result struct {
	// base holds learner j's predictions of the misses; nil for the
	// XML learners, which run in the second pass.
	base [][]learn.Prediction
	// labels are the interim labels of the misses, aligned with them;
	// nil when the system labels no sub-elements.
	labels []string
}

// score scores every tag's batch in two passes over the tags whose
// columns miss the combined memo. The first runs the non-XML learners,
// batched, on each column's misses and derives every sub-element
// miss's interim label from those same predictions; a hit's label is
// in its memo entry. The second pass runs the XML learners, which read
// every node's label from one table, and then the final stacker.
//
// Duplicate instances — a column's values repeat across listings — are
// scored once and share the prediction, which is immutable. Values
// seen in earlier requests come out of the combined memo without
// touching any learner, so a request whose values all hit the memo
// fans out zero times and builds no table. Memo reads and writes
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
		label := s.labelsSubElements()
		first, err := parallel.Map(ctx, s.cfg.Workers, len(todo),
			func(_ context.Context, k int) (pass1Result, error) {
				return s.pass1(&cols[todo[k]], label), nil
			})
		if err != nil {
			return nil, err
		}
		if label {
			setSubLabels(batches, cols, todo, first)
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
				c.entries[u].pred = final[k][m]
				s.combined.Put(c.keys[u], c.entries[u])
			}
		}
	}
	out := make([][]learn.Prediction, len(batches))
	for ti, c := range cols {
		out[ti] = make([]learn.Prediction, len(c.pos))
		for i, u := range c.pos {
			out[ti][i] = c.entries[u].pred
		}
	}
	return out, nil
}

// lookup deduplicates one tag's batch and reads the combined memo.
// Leaf and text-only instances key on (tag, path, content), which
// covers every feature any learner reads (see instanceKey); interior
// nodes key on their full serialized subtree (see interiorKey), and
// name-only instances on their tag and path alone (see nameKey).
func (s *System) lookup(batch []learn.Instance) column {
	c := column{
		pos:     make([]int, len(batch)),
		keys:    make([]string, 0, len(batch)),
		entries: make([]entry, 0, len(batch)),
	}
	idx := make(map[string]int, len(batch))
	for i, in := range batch {
		var key string
		switch {
		case in.Node == nil:
			key = nameKey(in.TagName, in.Path)
		case in.Node.IsLeaf():
			key = instanceKey(in.TagName, in.Path, in.Content)
		default:
			key = interiorKey(in.Path, in.Node)
		}
		u, ok := idx[key]
		if !ok {
			u = len(c.keys)
			idx[key] = u
			e, hit := s.combined.Get(key)
			c.keys = append(c.keys, key)
			c.entries = append(c.entries, e)
			if !hit {
				c.miss = append(c.miss, u)
				c.ins = append(c.ins, in)
			}
		}
		c.pos[i] = u
	}
	return c
}

// isXML reports whether l is an XML learner, which runs in the second
// pass.
func isXML(l learn.Learner) bool {
	_, ok := l.(*xmllearner.Learner)
	return ok
}

// labelsSubElements reports whether the system labels sub-elements:
// it has an XML learner to read the labels and an interim ensemble to
// predict them.
func (s *System) labelsSubElements() bool {
	return s.interimStacker != nil && slices.ContainsFunc(s.learners, isXML)
}

// isSubElement reports whether in is an element below a listing root.
// Listing roots and name-only instances are never sub-elements.
func isSubElement(in learn.Instance) bool { return in.Node != nil && len(in.Path) >= 2 }

// pass1 runs the non-XML learners on a column's misses, each through
// learn.PredictAll, and, when label is set, labels the sub-elements
// among them.
func (s *System) pass1(c *column, label bool) pass1Result {
	r := pass1Result{base: make([][]learn.Prediction, len(s.learners))}
	for j, l := range s.learners {
		if !isXML(l) {
			r.base[j] = learn.PredictAll(l, c.ins)
		}
	}
	if label {
		r.labels = s.interimLabels(c.ins, r.base)
	}
	return r
}

// interimLabels returns the interim label of every sub-element among
// ins, aligned with ins: the interim stacker's best label over the
// interim learners' predictions, OTHER when it has none. Interim
// learner j reuses base[j], the system's learner j's predictions of
// ins, when it is that same learner; any other interim learner
// predicts ins itself. Other instances get the empty label.
func (s *System) interimLabels(ins []learn.Instance, base [][]learn.Prediction) []string {
	interim := make([][]learn.Prediction, len(s.interimLearners))
	for j, l := range s.interimLearners {
		if j < len(base) && base[j] != nil && l == s.learners[j] {
			interim[j] = base[j]
		} else {
			interim[j] = learn.PredictAll(l, ins)
		}
	}
	row := predScratch.Get(len(interim))
	out := make([]string, len(ins))
	for i, in := range ins {
		if !isSubElement(in) {
			continue
		}
		for j := range row {
			row[j] = interim[j][i]
		}
		best, _ := s.interimStacker.Combine(row).Best()
		if best == "" {
			best = learn.Other
		}
		out[i] = best
	}
	predScratch.Put(row)
	return out
}

// setSubLabels keeps each miss's label from the first pass in its
// entry, maps every sub-element of the batches to its unique slot's
// label, and hands that table to the misses for the second pass. The
// table lives for one match.
func setSubLabels(batches [][]learn.Instance, cols []column, todo []int, first []pass1Result) {
	for k, ti := range todo {
		c := &cols[ti]
		for m, u := range c.miss {
			c.entries[u].label = first[k].labels[m]
		}
	}
	n := 0
	for _, batch := range batches {
		n += len(batch)
	}
	table := make(map[*xmltree.Node]string, n)
	for ti, batch := range batches {
		c := &cols[ti]
		for i, in := range batch {
			if isSubElement(in) {
				table[in.Node] = c.entries[c.pos[i]].label
			}
		}
	}
	for _, ti := range todo {
		c := &cols[ti]
		for m := range c.ins {
			c.ins[m].SubLabels = table
		}
	}
}

// pass2 runs the XML learners on a column's misses and stacks every
// learner's predictions; base holds the first pass's.
func (s *System) pass2(ins []learn.Instance, base [][]learn.Prediction) []learn.Prediction {
	all := make([][]learn.Prediction, len(s.learners))
	for j, l := range s.learners {
		if isXML(l) {
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
