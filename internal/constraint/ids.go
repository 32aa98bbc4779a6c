package constraint

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/learn"
)

// The handler works in ids. A run numbers the source's tags, in
// src.Tags order, and every label it can meet once; an assignment is
// then tag id → label id with the inverse label id → tag ids, and each
// built-in constraint has one implementation over those ids. The
// public Violations(src, m, complete) of a built-in numbers m and calls
// it. Custom constraints (BinarySoft closures and Constraint
// implementations outside this package) still read an Assignment map,
// which an assignment mirrors only when such a constraint is present.

// run is one handler run's view of a source in ids: the numbered tags
// and labels, the constraints bound to them, and the schema and column
// facts the built-in constraints look up, each computed once per tag
// or tag pair on first use.
type run struct {
	src *Source
	// tags are the numbered tags, indexed by tag id: src.Tags, then any
	// tag outside it that an adapted assignment maps.
	tags  []string
	nSrc  int // tags[:nSrc] are src.Tags
	tagID map[string]int32
	// labels are the numbered labels, indexed by label id.
	labels  []string
	labelID map[string]int32
	other   int32 // OTHER's label id

	cons []bound
	// byLabel lists, per label id, the positions of the constraints
	// whose Labels() name it, ascending (a constraint naming a label
	// twice is listed twice). global lists the constraints whose
	// Labels() is nil, which react to any assignment.
	byLabel [][]int
	global  []int
	custom  bool // some constraint reads the Assignment map

	// scores reads each tag's prediction by label id (see score).
	scores []scoreRow
	// byName lists the tag ids in ascending tag order: the order
	// probCost sums in.
	byName []int32

	// Facts, filled on first use: leaf and dup per tag id (0 unknown,
	// 1 no, 2 yes), nest per ordered tag pair, sibs per unordered pair.
	leaf    []int8
	dup     []int8
	nest    map[uint64]bool
	sibs    map[uint64]sibling
	between []int32 // the sibling facts' between-tags, as tag ids

	emptyLabel Constraint // the first constraint naming "", if any
	dupTag     string     // a tag src.Tags lists twice, if any
}

// bound is a constraint bound to a run: its labels (Describe order) as
// label ids and, for feedback, its tag as a tag id (-1 when the run
// does not number it). eval is nil for a custom constraint.
type bound struct {
	c      Constraint
	eval   builtin
	labels []int32
	tag    int32
}

// builtin is implemented by every constraint kind of this package whose
// behaviour is data: violations is its one evaluation, over a run's
// ids; Violations adapts it to an Assignment map.
type builtin interface {
	Constraint
	violations(r *run, a *assignment, b *bound, complete bool) float64
}

// sibling is a run's fact for a tag pair: whether the schema makes the
// tags ordered siblings, and the numbered tags between them,
// r.between[from:to].
type sibling struct {
	ok       bool
	from, to int32
}

// scoreRow reads one tag's prediction by run label id: ids[l] is label
// l's id in the prediction's own table, or -1 when it has none.
type scoreRow struct {
	pred learn.Prediction
	ids  []int32
}

// newRun numbers src's tags and the labels a run can meet: OTHER,
// every label a constraint names, the labels of cands, and the labels
// of m, whose tags outside src.Tags are numbered after src.Tags. It
// fills each candidate's id and reads preds by label id. The run's
// refusal reports what the numbering cannot express.
func newRun(src *Source, cs []Constraint, preds map[string]learn.Prediction, cands [][]candidate, m Assignment) *run {
	r := &run{
		src:     src,
		tagID:   make(map[string]int32, len(src.Tags)+len(m)),
		labelID: make(map[string]int32),
		cons:    make([]bound, len(cs)),
		nest:    make(map[uint64]bool),
		sibs:    make(map[uint64]sibling),
	}
	for _, t := range src.Tags {
		r.addTag(t)
	}
	r.nSrc = len(r.tags)
	var extra []string
	for t := range m {
		if _, ok := r.tagID[t]; !ok {
			extra = append(extra, t)
		}
	}
	sort.Strings(extra)
	for _, t := range extra {
		r.addTag(t)
	}
	r.other = r.label(learn.Other)

	indexed := make([][]string, len(cs))
	for k, c := range cs {
		spec := Describe(c)
		indexed[k] = c.Labels()
		for _, l := range indexed[k] {
			r.label(l)
		}
		b := &r.cons[k]
		b.c, b.tag = c, -1
		b.eval, _ = c.(builtin)
		if b.eval == nil {
			r.custom = true
		}
		b.labels = make([]int32, len(spec.Labels))
		for i, l := range spec.Labels {
			if l == "" && r.emptyLabel == nil {
				r.emptyLabel = c
			}
			b.labels[i] = r.label(l)
		}
		if spec.Kind == KindMustMatch {
			if t, ok := r.tagID[spec.Tag]; ok {
				b.tag = t
			}
		}
	}
	for i := range cands {
		for j := range cands[i] {
			cands[i][j].id = r.label(cands[i][j].label)
		}
	}
	for _, t := range r.tags {
		if l, ok := m[t]; ok {
			r.label(l)
		}
	}

	r.byLabel = make([][]int, len(r.labels))
	for k, ls := range indexed {
		if ls == nil {
			r.global = append(r.global, k)
			continue
		}
		for _, l := range ls {
			id := r.labelID[l]
			r.byLabel[id] = append(r.byLabel[id], k)
		}
	}

	n := len(r.tags)
	r.leaf, r.dup = make([]int8, n), make([]int8, n)
	r.byName = make([]int32, n)
	for t := range r.byName {
		r.byName[t] = int32(t)
	}
	sort.Slice(r.byName, func(i, j int) bool { return r.tags[r.byName[i]] < r.tags[r.byName[j]] })

	r.scores = make([]scoreRow, n)
	tables := make(map[*learn.Labels][]int32)
	for t, tag := range r.tags {
		p, ok := preds[tag]
		if !ok || p.Labels() == nil {
			continue
		}
		ids, ok := tables[p.Labels()]
		if !ok {
			ids = make([]int32, len(r.labels))
			for l, name := range r.labels {
				ids[l] = -1
				if id, ok := p.Labels().ID(name); ok {
					ids[l] = int32(id)
				}
			}
			tables[p.Labels()] = ids
		}
		r.scores[t] = scoreRow{p, ids}
	}
	return r
}

func (r *run) addTag(t string) {
	if _, dup := r.tagID[t]; dup {
		if r.dupTag == "" {
			r.dupTag = t
		}
		return
	}
	r.tagID[t] = int32(len(r.tags))
	r.tags = append(r.tags, t)
}

// label returns label's id, numbering it if it is new. Numbering ends
// with newRun.
func (r *run) label(l string) int32 {
	id, ok := r.labelID[l]
	if !ok {
		id = int32(len(r.labels))
		r.labelID[l] = id
		r.labels = append(r.labels, l)
	}
	return id
}

// refusal reports what Run refuses: a constraint naming the empty
// label, which only map semantics give a meaning (TagsFor(src, "")
// lists the unassigned tags), or a source listing a tag twice.
func (r *run) refusal() error {
	if r.emptyLabel != nil {
		return fmt.Errorf("constraint: %q names the empty label", r.emptyLabel.Name())
	}
	if r.dupTag != "" {
		return fmt.Errorf("constraint: the source lists tag %q twice", r.dupTag)
	}
	return nil
}

// tagIDs returns the ids of tags, each of which the run numbers.
func (r *run) tagIDs(tags []string) []int32 {
	out := make([]int32, len(tags))
	for i, t := range tags {
		out[i] = r.tagID[t]
	}
	return out
}

// violations is constraint k's violation degree under a.
func (r *run) violations(k int, a *assignment, complete bool) float64 {
	b := &r.cons[k]
	if b.eval == nil {
		return b.c.Violations(r.src, a.m, complete)
	}
	return b.eval.violations(r, a, b, complete)
}

// cost is Σ λᵢ·cost(a, Tᵢ) over the constraints for a complete a;
// +Inf if a hard constraint is violated.
func (r *run) cost(a *assignment) float64 {
	total := 0.0
	for k := range r.cons {
		v := r.violations(k, a, true)
		if v <= 0 {
			continue
		}
		c := r.cons[k].c
		if c.Hard() {
			return math.Inf(1)
		}
		total += c.Weight() * v
	}
	return total
}

// softCost is cost with the hard constraints left out: what an
// infeasible mapping reports.
func (r *run) softCost(a *assignment) float64 {
	total := 0.0
	for k := range r.cons {
		c := r.cons[k].c
		if c.Hard() {
			continue
		}
		total += c.Weight() * r.violations(k, a, true)
	}
	return total
}

// score is tag t's converter score for label l; 0 when t has no
// prediction or its prediction no such label.
func (r *run) score(t, l int32) float64 {
	row := r.scores[t]
	if row.ids == nil {
		return 0
	}
	if x := row.ids[l]; x >= 0 {
		return row.pred.At(int(x))
	}
	return 0
}

// probCost is −log prob(a): the −log score of each assigned tag,
// floored at ε, summed in tag order so the sum's rounding does not
// depend on the numbering.
func (r *run) probCost(a *assignment) float64 {
	cost := 0.0
	for _, t := range r.byName {
		if l := a.of[t]; l >= 0 {
			cost += negLog(r.score(t, l))
		}
	}
	return cost
}

// affected returns, in dst's storage, the positions of the constraints
// a move between labels a and b can change: those indexed under a or
// b, plus the global ones, each once.
func (r *run) affected(dst []int, a, b int32) []int {
	out := append(dst[:0], r.byLabel[a]...)
	out = append(out, r.byLabel[b]...)
	out = append(out, r.global...)
	slices.Sort(out)
	return slices.Compact(out)
}

// isLeaf reports whether tag t cannot contain child elements.
func (r *run) isLeaf(t int32) bool {
	if r.leaf[t] == 0 {
		r.leaf[t] = 1
		if r.src.Schema.IsLeaf(r.tags[t]) {
			r.leaf[t] = 2
		}
	}
	return r.leaf[t] == 2
}

// canNest reports whether tag y can appear inside tag x.
func (r *run) canNest(x, y int32) bool {
	key := uint64(x)<<32 | uint64(y)
	nested, ok := r.nest[key]
	if !ok {
		nested = r.src.Schema.CanNest(r.tags[x], r.tags[y])
		r.nest[key] = nested
	}
	return nested
}

// siblings returns the sibling fact of tags x and y. The tags between
// two siblings that the run does not number are left out: nothing can
// assign them.
func (r *run) siblings(x, y int32) sibling {
	if x > y {
		x, y = y, x
	}
	key := uint64(x)<<32 | uint64(y)
	s, ok := r.sibs[key]
	if !ok {
		between, isSib := r.src.Schema.SiblingsBetween(r.tags[x], r.tags[y])
		s = sibling{ok: isSib, from: int32(len(r.between))}
		for _, t := range between {
			if id, ok := r.tagID[t]; ok {
				r.between = append(r.between, id)
			}
		}
		s.to = int32(len(r.between))
		r.sibs[key] = s
	}
	return s
}

// dupColumn reports whether tag t's extracted column repeats a
// non-empty value.
func (r *run) dupColumn(t int32) bool {
	if r.dup[t] == 0 {
		r.dup[t] = 1
		col := r.src.Columns[r.tags[t]]
		seen := make(map[string]bool, len(col))
		for _, v := range col {
			if v == "" {
				continue
			}
			if seen[v] {
				r.dup[t] = 2
				break
			}
			seen[v] = true
		}
	}
	return r.dup[t] == 2
}

// assignment is a mapping in ids: of[t] is tag t's label id, -1 while
// t is unassigned, and tags[l] lists the tags assigned label l in
// ascending id order. m mirrors it as an Assignment when the run has a
// custom constraint to hand it to, and is nil otherwise.
type assignment struct {
	r    *run
	of   []int32
	tags [][]int32
	m    Assignment
}

// newAssignment returns an empty assignment whose label lists have
// room for the tags cands and start can put there; a list that
// outgrows its room (a swap can move a tag to a label it has no
// candidate for) is regrown.
func (r *run) newAssignment(cands [][]candidate, start Assignment) *assignment {
	room := make([]int, len(r.labels))
	total := 0
	for _, cs := range cands {
		for _, c := range cs {
			room[c.id]++
		}
		total += len(cs)
	}
	for t, l := range start {
		if _, ok := r.tagID[t]; ok {
			room[r.labelID[l]]++
			total++
		}
	}
	a := &assignment{r: r, of: make([]int32, len(r.tags)), tags: make([][]int32, len(r.labels))}
	for t := range a.of {
		a.of[t] = -1
	}
	arena := make([]int32, total)
	off := 0
	for l, n := range room {
		a.tags[l] = arena[off : off : off+n]
		off += n
	}
	if r.custom {
		a.m = make(Assignment, len(r.tags))
	}
	return a
}

// assignmentOf returns m in ids; r numbers every tag and label of m.
func (r *run) assignmentOf(m Assignment) *assignment {
	a := r.newAssignment(nil, m)
	for t, tag := range r.tags {
		if l, ok := m[tag]; ok {
			a.set(int32(t), r.labelID[l])
		}
	}
	return a
}

// set assigns tag t label l, or unassigns it when l is -1.
func (a *assignment) set(t, l int32) {
	old := a.of[t]
	if old == l {
		return
	}
	if old >= 0 {
		a.remove(old, t)
	}
	a.of[t] = l
	if l >= 0 {
		a.insert(l, t)
	}
	if a.m != nil {
		if l >= 0 {
			a.m[a.r.tags[t]] = a.r.labels[l]
		} else {
			delete(a.m, a.r.tags[t])
		}
	}
}

// swap exchanges the labels of tags t and u, both assigned. Both leave
// their lists before either joins the other's, so no list grows.
func (a *assignment) swap(t, u int32) {
	lt, lu := a.of[t], a.of[u]
	a.remove(lt, t)
	a.remove(lu, u)
	a.of[t], a.of[u] = lu, lt
	a.insert(lu, t)
	a.insert(lt, u)
	if a.m != nil {
		a.m[a.r.tags[t]], a.m[a.r.tags[u]] = a.r.labels[lu], a.r.labels[lt]
	}
}

// clear unassigns every tag.
func (a *assignment) clear() {
	for t, l := range a.of {
		if l >= 0 {
			a.tags[l] = a.tags[l][:0]
			a.of[t] = -1
		}
	}
	clear(a.m)
}

func (a *assignment) insert(l, t int32) {
	ts := a.tags[l]
	n := len(ts)
	if n == cap(ts) {
		grown := make([]int32, n, 2*n+1)
		copy(grown, ts)
		ts = grown
	}
	ts = ts[:n+1]
	for n > 0 && ts[n-1] > t {
		ts[n] = ts[n-1]
		n--
	}
	ts[n] = t
	a.tags[l] = ts
}

func (a *assignment) remove(l, t int32) {
	ts := a.tags[l]
	i := slices.Index(ts, t)
	copy(ts[i:], ts[i+1:])
	a.tags[l] = ts[:len(ts)-1]
}

// srcTags returns the tags of src.Tags assigned label l, in src.Tags
// order: TagsFor over ids.
func (a *assignment) srcTags(l int32) []int32 {
	ts := a.tags[l]
	n := len(ts)
	for n > 0 && int(ts[n-1]) >= a.r.nSrc {
		n--
	}
	return ts[:n]
}

// mapping returns the Assignment a holds over src.Tags.
func (r *run) mapping(a *assignment) Assignment {
	m := make(Assignment, r.nSrc)
	for t, l := range a.of[:r.nSrc] {
		if l >= 0 {
			m[r.tags[t]] = r.labels[l]
		}
	}
	return m
}

// adapt is a built-in constraint's Violations: it numbers src's tags,
// m, and c's labels, and evaluates c over the ids. A tag that m does
// not map matches no label, the empty one included.
func adapt(c builtin, src *Source, m Assignment, complete bool) float64 {
	r := newRun(src, []Constraint{c}, nil, nil, m)
	return c.violations(r, r.assignmentOf(m), &r.cons[0], complete)
}
