package constraint

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/learn"
)

// Handler searches the space of candidate mappings for the one with the
// lowest cost (§4.2). LSD uses A*: states are partial assignments over
// the source tags in a fixed order, g is the cost already incurred
// (−α·log of assigned scores plus constraint costs), and h is the best
// achievable score cost of the unassigned tags — admissible because it
// ignores future constraint violations, which only ever add cost.
type Handler struct {
	// Constraints are the domain constraints plus any user-feedback
	// constraints for the current source.
	Constraints []Constraint
	// Alpha is the scaling coefficient of the −log prob(m) term.
	Alpha float64
	// TopK bounds the candidate labels considered per tag (the best-K
	// by converter score, plus OTHER, plus any feedback-forced label).
	// Zero means all labels. This is the pre-processing §7 suggests for
	// keeping the handler interactive.
	TopK int
	// MaxExpansions caps A* node expansions before falling back to
	// greedy completion of the most promising state.
	MaxExpansions int
	// Epsilon inflates the heuristic (weighted A*): the search returns a
	// mapping whose cost is within Epsilon of optimal but reaches goals
	// far sooner on ambiguous prediction landscapes. 1 (or 0, treated as
	// 1) is exact A*; the experiments use a small inflation, one of the
	// efficiency measures §7 calls for.
	Epsilon float64
}

// NewHandler returns a handler with the defaults used in the
// experiments: α = 1, 8 candidates per tag, 200k expansions.
func NewHandler(constraints ...Constraint) *Handler {
	return &Handler{
		Constraints:   constraints,
		Alpha:         1,
		TopK:          6,
		MaxExpansions: 50_000,
		Epsilon:       3,
	}
}

// Result is the outcome of a handler run.
type Result struct {
	// Mapping is the lowest-cost assignment found.
	Mapping Assignment
	// Cost is cost(m) of the returned mapping.
	Cost float64
	// Expansions counts A* node expansions performed.
	Expansions int
	// Complete reports whether the search proved optimality (goal
	// popped from the queue) rather than falling back to greedy.
	Complete bool
}

// Run finds the best mapping for the source given the converter's
// per-tag predictions. If every mapping violates a hard constraint it
// returns the best-scoring mapping ignoring hard constraints, flagged
// incomplete, so callers always receive a usable mapping. It refuses a
// constraint that names the empty label and a source that lists a tag
// twice.
//
// Run numbers the source's tags and the labels it can meet once (see
// run) and searches over ids. States are partial assignments over the
// structure-ordered tags, stored as compact candidate-index arrays.
// Costs are evaluated incrementally: assigning one tag re-evaluates
// only the constraints whose Labels() mention the new label (plus the
// global ones), against a scratch assignment reused across the
// expansion.
func (h *Handler) Run(src *Source, preds map[string]learn.Prediction) (*Result, error) {
	order := h.tagOrder(src)
	cands := h.candidates(src, order, preds)
	r := newRun(src, h.Constraints, preds, cands, nil)
	if err := r.refusal(); err != nil {
		return nil, err
	}
	if len(src.Tags) == 0 {
		return &Result{Mapping: Assignment{}, Complete: true}, nil
	}
	ord := r.tagIDs(order)
	scratch := r.newAssignment(cands, nil)

	// Completion-sensitive constraints (e.g. exactly-one frequency) are
	// re-checked once when an assignment completes: those an empty
	// assignment violates only under complete=true.
	var completionSensitive []int
	for k := range r.cons {
		if r.violations(k, scratch, true) > r.violations(k, scratch, false) {
			completionSensitive = append(completionSensitive, k)
		}
	}

	// Remaining-cost lower bounds for h: suffix sums of each tag's best
	// candidate probability cost, inflated by Epsilon for weighted A*.
	eps := h.Epsilon
	if eps < 1 {
		eps = 1
	}
	best := make([]float64, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		bestScore := 0.0
		for _, c := range cands[i] {
			if c.score > bestScore {
				bestScore = c.score
			}
		}
		best[i] = best[i+1] + eps*h.Alpha*negLog(bestScore)
	}

	// load makes scratch the assignment of a state's candidate indices.
	load := func(labels []int16) {
		scratch.clear()
		for i, li := range labels {
			scratch.set(ord[i], cands[i][li].id)
		}
	}

	start := &state{f: best[0]}
	pq := &stateQueue{start}
	heap.Init(pq)
	expansions := 0
	var bestPartial *state

	// Each expansion's candidates share the affected constraints'
	// violation degrees before the new assignment: before[k] is valid
	// while beforeAt[k] equals the current expansion count.
	before := make([]float64, len(r.cons))
	beforeAt := make([]int, len(r.cons))
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(*state)
		if cur.idx == len(order) {
			load(cur.labels)
			cost := h.repair(r, ord, cands, scratch)
			return &Result{
				Mapping:    r.mapping(scratch),
				Cost:       cost,
				Expansions: expansions,
				Complete:   true,
			}, nil
		}
		if expansions >= h.MaxExpansions {
			bestPartial = cur
			break
		}
		expansions++
		if bestPartial == nil || cur.idx > bestPartial.idx {
			bestPartial = cur
		}

		load(cur.labels)
		tag := ord[cur.idx]
		complete := cur.idx+1 == len(order)

		for ci, cand := range cands[cur.idx] {
			scratch.set(tag, cand.id)
			dCost := 0.0
			feasible := true
			// The cost change of adding the assignment: the affected
			// constraints' violations after minus before. Monotone
			// constraints make the before-terms cheap to subtract.
		affected:
			for _, ks := range [2][]int{r.byLabel[cand.id], r.global} {
				for _, k := range ks {
					if beforeAt[k] != expansions {
						scratch.set(tag, -1)
						before[k] = r.violations(k, scratch, false)
						scratch.set(tag, cand.id)
						beforeAt[k] = expansions
					}
					after := r.violations(k, scratch, false)
					if after <= before[k] {
						continue
					}
					c := r.cons[k].c
					if c.Hard() {
						feasible = false
						break affected
					}
					dCost += c.Weight() * (after - before[k])
				}
			}
			if feasible && complete {
				for _, k := range completionSensitive {
					if v := r.violations(k, scratch, true); v > 0 {
						c := r.cons[k].c
						if c.Hard() {
							feasible = false
							break
						}
						dCost += c.Weight() * v
					}
				}
			}
			if !feasible {
				continue
			}
			g := cur.g + h.Alpha*negLog(cand.score) + dCost
			labels := make([]int16, cur.idx+1)
			copy(labels, cur.labels)
			labels[cur.idx] = int16(ci)
			heap.Push(pq, &state{labels: labels, idx: cur.idx + 1, g: g, f: g + best[cur.idx+1]})
		}
	}

	// No feasible complete mapping within budget: greedily complete the
	// deepest partial state, ignoring hard constraints where necessary.
	scratch.clear()
	if bestPartial != nil {
		load(bestPartial.labels)
	}
	for i, t := range ord {
		if scratch.of[t] >= 0 {
			continue
		}
		bestLabel, bestScore := r.other, -1.0
		for _, cand := range cands[i] {
			if cand.score > bestScore {
				bestLabel, bestScore = cand.id, cand.score
			}
		}
		scratch.set(t, bestLabel)
	}
	cost := h.repair(r, ord, cands, scratch)
	return &Result{
		Mapping:    r.mapping(scratch),
		Cost:       cost,
		Expansions: expansions,
		Complete:   false,
	}, nil
}

// repair hill-climbs a complete mapping: single-tag reassignments and
// pairwise label swaps are applied while they lower the total cost.
// Weighted A* reaches goals quickly but can lock a label onto the wrong
// tag early and push the right tag to a lesser choice ("steal chains");
// a swap move repairs exactly that in one step, where single
// reassignments would have to pass through a hard frequency violation.
// The assignment, which must assign every tag of ord, is repaired in
// place; the final cost is returned.
//
// Every move is screened before it is costed in full: while the
// current cost is finite, a move re-evaluates only the constraints it
// can change, against their cached degrees, and the −log terms of the
// tags it moves. Only moves the screen cannot rule out pay for the full
// recompute, whose result alone decides acceptance, so the decisions,
// the mapping and the returned cost are those of costing every move in
// full (DESIGN.md, "Weighted A* + local repair").
//
// lint:hot
func (h *Handler) repair(r *run, ord []int32, cands [][]candidate, m *assignment) float64 {
	total := func() float64 {
		cc := r.cost(m)
		if math.IsInf(cc, 1) {
			return cc
		}
		return h.Alpha*r.probCost(m) + cc
	}
	cur := total()

	// The screen's view of the current mapping, kept while cur is
	// finite: deg[k] is constraint k's complete-assignment violation
	// degree and term[i] the −log score of ord[i]'s label. moved and
	// after hold the move under test's affected constraints and their
	// degrees with the move applied.
	deg := make([]float64, len(r.cons))
	after := make([]float64, len(r.cons))
	moved := make([]int, 0, len(r.cons))
	term := make([]float64, len(ord))
	reset := func() {
		for k := range r.cons {
			deg[k] = r.violations(k, m, true)
		}
		for i, t := range ord {
			term[i] = negLog(r.score(t, m.of[t]))
		}
	}
	if !math.IsInf(cur, 1) {
		reset()
	}

	// try decides a move already applied to m that takes ord[i] from
	// label a to b and, for a swap (j ≥ 0), ord[j] from b to a. It
	// reports whether the move lowers the cost, updating cur if so.
	try := func(i, j int, a, b int32) bool {
		if math.IsInf(cur, 1) {
			// The greedy fallback can start infeasible; with no finite
			// cost to screen against, every move is costed in full
			// until one reaches a feasible mapping.
			c := total()
			if !(c < cur-1e-12) {
				return false
			}
			cur = c
			reset()
			return true
		}
		moved = r.affected(moved, a, b)
		d := 0.0
		for _, k := range moved {
			c := r.cons[k].c
			v := r.violations(k, m, true)
			after[k] = v
			if c.Hard() {
				if v > 0 {
					return false // the full cost would be +Inf
				}
				continue
			}
			if v > 0 {
				d += c.Weight() * v
			}
			if deg[k] > 0 {
				d -= c.Weight() * deg[k]
			}
		}
		ti, tj := negLog(r.score(ord[i], b)), 0.0
		d += h.Alpha * (ti - term[i])
		if j >= 0 {
			tj = negLog(r.score(ord[j], a))
			d += h.Alpha * (tj - term[j])
		}
		// d is the change the full test below would see, up to
		// rounding: cur and the move's cost each sum n non-negative
		// terms (one −log score per tag, one weighted degree per
		// violated soft constraint), so each is within n·2⁻⁵³·|cur| of
		// its exact value, about 2e-14·|cur| for Real Estate II's
		// n ≈ 200, and d's few differences are closer still. The
		// tolerance 1e-9·(1+|cur|) exceeds that bound for any n below
		// ten million: a move it rules out fails the full test too.
		if d >= -1e-12+1e-9*(1+math.Abs(cur)) {
			return false
		}
		c := total()
		if !(c < cur-1e-12) {
			return false
		}
		cur = c
		for _, k := range moved {
			deg[k] = after[k]
		}
		term[i] = ti
		if j >= 0 {
			term[j] = tj
		}
		return true
	}
	for pass := 0; pass < 10; pass++ {
		improved := false
		// Single reassignments.
		for i, t := range ord {
			was := m.of[t]
			for _, cand := range cands[i] {
				if cand.id == was {
					continue
				}
				m.set(t, cand.id)
				if try(i, -1, was, cand.id) {
					was, improved = cand.id, true
				} else {
					m.set(t, was)
				}
			}
		}
		// Pairwise swaps.
		for i := 0; i < len(ord); i++ {
			for j := i + 1; j < len(ord); j++ {
				ti, tj := ord[i], ord[j]
				a, b := m.of[ti], m.of[tj]
				if a == b {
					continue
				}
				m.swap(ti, tj)
				if try(i, j, a, b) {
					improved = true
				} else {
					m.swap(ti, tj)
				}
			}
		}
		if !improved {
			break
		}
	}
	if math.IsInf(cur, 1) {
		// The greedy fallback can be infeasible; report its soft cost.
		return h.Alpha*r.probCost(m) + r.softCost(m)
	}
	return cur
}

// GreedyRun assigns every tag its highest-scoring label with no search;
// used as the no-constraint-handler configuration of the lesion studies
// ("each source-DTD tag is assigned the label associated with the
// highest score", §3.2 step 3).
func GreedyRun(src *Source, preds map[string]learn.Prediction) Assignment {
	m := make(Assignment, len(src.Tags))
	for _, tag := range src.Tags {
		label, _ := preds[tag].Best()
		if label == "" {
			label = learn.Other
		}
		m[tag] = label
	}
	return m
}

// StructureScore approximates how strongly a tag participates in
// domain constraints: the number of distinct tags nestable within it
// (§6.3). The tag order for both A* refinement and the feedback loop
// presents high-structure tags first.
func StructureScore(src *Source, tag string) int {
	seen := make(map[string]bool)
	var walk func(t string)
	walk = func(t string) {
		for _, c := range src.Schema.ChildTags(t) {
			if !seen[c] {
				seen[c] = true
				walk(c)
			}
		}
	}
	walk(tag)
	return len(seen)
}

// tagOrder returns src.Tags sorted by decreasing structure score,
// breaking ties by source order (§6.3, footnote 1).
func (h *Handler) tagOrder(src *Source) []string {
	type scored struct {
		tag   string
		score int
		pos   int
	}
	ss := make([]scored, len(src.Tags))
	for i, t := range src.Tags {
		ss[i] = scored{t, StructureScore(src, t), i}
	}
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].pos < ss[j].pos
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.tag
	}
	return out
}

// candidate is a label A* may assign a tag, with the tag's score for
// it; id is the label's id, filled in when a run numbers the labels.
type candidate struct {
	label string
	score float64
	id    int32
}

// candidates returns, per ordered tag, the labels A* may assign it.
func (h *Handler) candidates(src *Source, order []string, preds map[string]learn.Prediction) [][]candidate {
	forced := make(map[string]string)
	for _, c := range h.Constraints {
		if mm, ok := c.(*mustMatch); ok && !mm.forbid {
			forced[mm.tag] = mm.label
		}
	}
	out := make([][]candidate, len(order))
	for i, tag := range order {
		// Every label in label order, then stably by decreasing score:
		// equal scores keep label order.
		p := preds[tag]
		labels, scores := p.Labels(), p.Scores()
		cs := make([]candidate, 0, p.Len()+2)
		for _, id := range labels.Sorted() {
			cs = append(cs, candidate{label: labels.Name(id), score: scores[id]})
		}
		slices.SortStableFunc(cs, byScoreDesc)
		if h.TopK > 0 && len(cs) > h.TopK {
			cs = cs[:h.TopK]
		}
		// OTHER must always be available as an escape hatch.
		if !containsLabel(cs, learn.Other) {
			cs = append(cs, candidate{label: learn.Other, score: p.Score(learn.Other)})
		}
		// A feedback-forced label must be a candidate or the search
		// would be infeasible by construction.
		if l, ok := forced[tag]; ok && !containsLabel(cs, l) {
			cs = append(cs, candidate{label: l, score: p.Score(l)})
		}
		out[i] = cs
	}
	return out
}

// byScoreDesc orders candidates by decreasing score. It decides with >
// alone, so a NaN score compares equal to everything, as it does in
// sort.SliceStable with the same less function.
func byScoreDesc(a, b candidate) int {
	switch {
	case a.score > b.score:
		return -1
	case b.score > a.score:
		return 1
	}
	return 0
}

func containsLabel(cs []candidate, label string) bool {
	for _, c := range cs {
		if c.label == label {
			return true
		}
	}
	return false
}

func negLog(s float64) float64 {
	const eps = 1e-6
	if s < eps {
		s = eps
	}
	return -math.Log(s)
}

// state is an A* search node: the first idx tags of the search order
// assigned to candidate indices, with accumulated cost g and priority
// f = g + h.
type state struct {
	labels []int16 // labels[i] indexes cands[i]; len(labels) == idx
	idx    int
	g, f   float64
}

func (s *state) String() string {
	return fmt.Sprintf("state{idx=%d g=%.3f f=%.3f}", s.idx, s.g, s.f)
}

// stateQueue is a min-heap on f, preferring deeper states on ties so
// the search reaches goals sooner.
type stateQueue []*state

func (q stateQueue) Len() int { return len(q) }
func (q stateQueue) Less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	return q[i].idx > q[j].idx
}
func (q stateQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *stateQueue) Push(x interface{}) { *q = append(*q, x.(*state)) }
func (q *stateQueue) Pop() interface{} {
	old := *q
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return s
}
