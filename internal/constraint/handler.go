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
// incomplete, so callers always receive a usable mapping.
//
// States are partial assignments over the structure-ordered tags,
// stored as compact label-index arrays. Costs are evaluated
// incrementally: assigning one tag re-evaluates only the constraints
// whose Labels() mention the new label (plus the global ones), against
// a scratch Assignment reused across the expansion.
func (h *Handler) Run(src *Source, preds map[string]learn.Prediction) (*Result, error) {
	if len(src.Tags) == 0 {
		return &Result{Mapping: Assignment{}, Complete: true}, nil
	}
	order := h.tagOrder(src)
	cands := h.candidates(src, order, preds)
	idx := indexConstraints(h.Constraints)

	// Completion-sensitive constraints (e.g. exactly-one frequency) are
	// re-checked once when an assignment completes.
	var completionSensitive []Constraint
	for _, c := range h.Constraints {
		// A constraint is completion-sensitive if an empty assignment
		// violates it only under complete=true.
		if c.Violations(src, Assignment{}, true) > c.Violations(src, Assignment{}, false) {
			completionSensitive = append(completionSensitive, c)
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

	materialize := func(labels []int16) Assignment {
		m := make(Assignment, len(labels))
		for i, li := range labels {
			m[order[i]] = cands[i][li].label
		}
		return m
	}

	start := &state{f: best[0]}
	pq := &stateQueue{start}
	heap.Init(pq)
	expansions := 0
	var bestPartial *state
	scratch := Assignment{}

	// Each expansion's candidates share the affected constraints'
	// violation degrees before the new assignment: before[k] is valid
	// while beforeAt[k] equals the current expansion count.
	before := make([]float64, len(h.Constraints))
	beforeAt := make([]int, len(h.Constraints))
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(*state)
		if cur.idx == len(order) {
			m := materialize(cur.labels)
			cost := h.repair(src, preds, order, cands, idx, m)
			return &Result{
				Mapping:    m,
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

		// Rebuild scratch as the popped state's assignment.
		clear(scratch)
		for i, li := range cur.labels {
			scratch[order[i]] = cands[i][li].label
		}
		tag := order[cur.idx]
		complete := cur.idx+1 == len(order)

		for ci, cand := range cands[cur.idx] {
			scratch[tag] = cand.label
			dCost := 0.0
			feasible := true
			// The cost change of adding the assignment: the affected
			// constraints' violations after minus before. Monotone
			// constraints make the before-terms cheap to subtract.
		affected:
			for _, ks := range [2][]int{idx.byLabel[cand.label], idx.global} {
				for _, k := range ks {
					c := h.Constraints[k]
					if beforeAt[k] != expansions {
						delete(scratch, tag)
						before[k] = c.Violations(src, scratch, false)
						scratch[tag] = cand.label
						beforeAt[k] = expansions
					}
					after := c.Violations(src, scratch, false)
					if after <= before[k] {
						continue
					}
					if c.Hard() {
						feasible = false
						break affected
					}
					dCost += c.Weight() * (after - before[k])
				}
			}
			if feasible && complete {
				for _, c := range completionSensitive {
					if v := c.Violations(src, scratch, true); v > 0 {
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
		delete(scratch, tag)
	}

	// No feasible complete mapping within budget: greedily complete the
	// deepest partial state, ignoring hard constraints where necessary.
	m := Assignment{}
	if bestPartial != nil {
		m = materialize(bestPartial.labels)
	}
	for i, tag := range order {
		if _, ok := m[tag]; ok {
			continue
		}
		bestLabel, bestScore := learn.Other, -1.0
		for _, cand := range cands[i] {
			if cand.score > bestScore {
				bestLabel, bestScore = cand.label, cand.score
			}
		}
		m[tag] = bestLabel
	}
	cost := h.repair(src, preds, order, cands, idx, m)
	return &Result{
		Mapping:    m,
		Cost:       cost,
		Expansions: expansions,
		Complete:   false,
	}, nil
}

// constraintIndex maps each label to the constraints whose Labels()
// name it, as positions in Handler.Constraints in ascending order (a
// constraint naming a label twice is listed twice). Global constraints,
// whose Labels() is nil, react to any assignment. A* and repair share
// one index per run.
type constraintIndex struct {
	byLabel map[string][]int
	global  []int
}

func indexConstraints(cs []Constraint) constraintIndex {
	idx := constraintIndex{byLabel: make(map[string][]int)}
	for k, c := range cs {
		ls := c.Labels()
		if ls == nil {
			idx.global = append(idx.global, k)
			continue
		}
		for _, l := range ls {
			idx.byLabel[l] = append(idx.byLabel[l], k)
		}
	}
	return idx
}

// affected returns, in dst's storage, the positions of the constraints
// a move between labels a and b can change: those indexed under a or
// b, plus the global ones, each once.
func (idx constraintIndex) affected(dst []int, a, b string) []int {
	out := append(dst[:0], idx.byLabel[a]...)
	out = append(out, idx.byLabel[b]...)
	out = append(out, idx.global...)
	slices.Sort(out)
	return slices.Compact(out)
}

// repair hill-climbs a complete mapping: single-tag reassignments and
// pairwise label swaps are applied while they lower the total cost.
// Weighted A* reaches goals quickly but can lock a label onto the wrong
// tag early and push the right tag to a lesser choice ("steal chains");
// a swap move repairs exactly that in one step, where single
// reassignments would have to pass through a hard frequency violation.
// The mapping, which must assign every tag in order, is repaired in
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
func (h *Handler) repair(src *Source, preds map[string]learn.Prediction,
	order []string, cands [][]candidate, idx constraintIndex, m Assignment) float64 {

	total := func() float64 {
		cc := Cost(h.Constraints, src, m, true)
		if math.IsInf(cc, 1) {
			return cc
		}
		return h.Alpha*ProbCost(preds, m) + cc
	}
	cur := total()

	// The screen's view of the current mapping, kept while cur is
	// finite: deg[k] is Constraints[k]'s complete-assignment violation
	// degree and term[i] the −log score of order[i]'s label. moved and
	// after hold the move under test's affected constraints and their
	// degrees with the move applied.
	deg := make([]float64, len(h.Constraints))
	after := make([]float64, len(h.Constraints))
	moved := make([]int, 0, len(h.Constraints))
	term := make([]float64, len(order))
	reset := func() {
		for k, c := range h.Constraints {
			deg[k] = c.Violations(src, m, true)
		}
		for i, tag := range order {
			term[i] = negLog(preds[tag].Score(m[tag]))
		}
	}
	if !math.IsInf(cur, 1) {
		reset()
	}

	// try decides a move already applied to m that takes order[i] from
	// label a to b and, for a swap (j ≥ 0), order[j] from b to a. It
	// reports whether the move lowers the cost, updating cur if so.
	try := func(i, j int, a, b string) bool {
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
		moved = idx.affected(moved, a, b)
		d := 0.0
		for _, k := range moved {
			c := h.Constraints[k]
			v := c.Violations(src, m, true)
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
		ti, tj := negLog(preds[order[i]].Score(b)), 0.0
		d += h.Alpha * (ti - term[i])
		if j >= 0 {
			tj = negLog(preds[order[j]].Score(a))
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
		for i, tag := range order {
			was := m[tag]
			for _, cand := range cands[i] {
				if cand.label == was {
					continue
				}
				m[tag] = cand.label
				if try(i, -1, was, cand.label) {
					was, improved = cand.label, true
				} else {
					m[tag] = was
				}
			}
			m[tag] = was
		}
		// Pairwise swaps.
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				ti, tj := order[i], order[j]
				a, b := m[ti], m[tj]
				if a == b {
					continue
				}
				m[ti], m[tj] = b, a
				if try(i, j, a, b) {
					improved = true
				} else {
					m[ti], m[tj] = a, b
				}
			}
		}
		if !improved {
			break
		}
	}
	if math.IsInf(cur, 1) {
		// The greedy fallback can be infeasible; report its soft cost.
		return h.Alpha*ProbCost(preds, m) + softOnlyCost(h.Constraints, src, m)
	}
	return cur
}

func softOnlyCost(constraints []Constraint, src *Source, m Assignment) float64 {
	total := 0.0
	for _, c := range constraints {
		if c.Hard() {
			continue
		}
		total += c.Weight() * c.Violations(src, m, true)
	}
	return total
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

type candidate struct {
	label string
	score float64
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
			cs = append(cs, candidate{labels.Name(id), scores[id]})
		}
		slices.SortStableFunc(cs, byScoreDesc)
		if h.TopK > 0 && len(cs) > h.TopK {
			cs = cs[:h.TopK]
		}
		// OTHER must always be available as an escape hatch.
		if !containsLabel(cs, learn.Other) {
			cs = append(cs, candidate{learn.Other, p.Score(learn.Other)})
		}
		// A feedback-forced label must be a candidate or the search
		// would be infeasible by construction.
		if l, ok := forced[tag]; ok && !containsLabel(cs, l) {
			cs = append(cs, candidate{l, p.Score(l)})
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
