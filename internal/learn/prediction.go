package learn

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Labels is a label table: a model's fixed label set, numbered. A
// label's id is its position in the list the model was trained with
// (Mediated.Labels() order), and every prediction of the model is a
// score vector indexed by those ids. The table also keeps the labels'
// sorted order, which Best and the constraint handler's candidate
// lists use to break ties.
//
// Tables are interned: LabelsOf returns the same *Labels for the same
// label sequence, so the learners, the stacker and the converter of a
// model — each trained, cross-validated or restored from its own copy
// of the label list — share one table, and telling whether two
// predictions belong together is a pointer comparison. Two tables over
// the same label sequence are the same table even when the intern map
// is full and their pointers differ. A table is immutable.
type Labels struct {
	names []string       // id → label
	ids   map[string]int // label → id; a repeated name keeps its first id
	// sorted lists the ids in ascending label order.
	sorted []int
	// zero is the read-only all-zero score row of an empty prediction.
	zero []float64
}

// interned holds the tables LabelsOf has built, keyed by label
// sequence: one per distinct label set a process trains or loads.
// internedLen counts its entries.
var (
	interned    sync.Map // string key -> *Labels
	internedLen atomic.Int64
)

// maxInterned bounds the intern map for a process that decodes many
// distinct label sets (fuzzing, or hostile artifacts): past it LabelsOf
// returns tables it does not keep, which still match by content.
const maxInterned = 4096

// LabelsOf returns the label table over names, in that id order.
// Labels are expected to be distinct.
func LabelsOf(names []string) *Labels {
	buf := make([]byte, 0, 16*len(names))
	for _, c := range names {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	key := string(buf)
	if v, ok := interned.Load(key); ok {
		return v.(*Labels)
	}
	t := newLabels(names)
	if internedLen.Load() < maxInterned {
		if v, loaded := interned.LoadOrStore(key, t); loaded {
			return v.(*Labels)
		}
		internedLen.Add(1)
	}
	return t
}

// newLabels builds a table over names without interning it.
func newLabels(names []string) *Labels {
	t := &Labels{
		names:  append([]string(nil), names...),
		ids:    make(map[string]int, len(names)),
		sorted: make([]int, len(names)),
		zero:   make([]float64, len(names)),
	}
	for id, c := range t.names {
		if _, dup := t.ids[c]; !dup {
			t.ids[c] = id
		}
		t.sorted[id] = id
	}
	sort.SliceStable(t.sorted, func(a, b int) bool {
		return t.names[t.sorted[a]] < t.names[t.sorted[b]]
	})
	return t
}

// same reports whether t and u are over the same label sequence.
func (t *Labels) same(u *Labels) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || len(t.names) != len(u.names) {
		return false
	}
	for id, c := range t.names {
		if u.names[id] != c {
			return false
		}
	}
	return true
}

// Len returns the number of labels; 0 for a nil table.
func (t *Labels) Len() int {
	if t == nil {
		return 0
	}
	return len(t.names)
}

// Name returns the label with the given id.
func (t *Labels) Name(id int) string { return t.names[id] }

// ID returns the id of label, and whether the table has it.
func (t *Labels) ID(label string) (int, bool) {
	if t == nil {
		return -1, false
	}
	id, ok := t.ids[label]
	return id, ok
}

// Names returns the labels in id order. The slice is the table's own
// and read-only.
func (t *Labels) Names() []string {
	if t == nil {
		return nil
	}
	return t.names
}

// Sorted returns the ids in ascending label order. The slice is the
// table's own and read-only.
func (t *Labels) Sorted() []int {
	if t == nil {
		return nil
	}
	return t.sorted
}

// Prediction is a confidence-score distribution over a label table:
// s(c|x, L) for each label c, with scores summing to 1 after Normalize
// (§2.2). Scores are dense, indexed by label id, and the prediction
// carries its table, so it names its own labels. The zero value is the
// empty prediction, which has no labels and which the stacker and the
// converter read as all zeros.
type Prediction struct {
	labels *Labels
	scores []float64
}

// NewPrediction returns an all-zero prediction over t: the one
// constructor of score vectors. A learner builds its predictions over
// LabelsOf(the labels it was trained with), fills them through Scores
// or Set, and returns them normalized.
func NewPrediction(t *Labels) Prediction {
	return Prediction{labels: t, scores: make([]float64, t.Len())}
}

// Uniform returns the uniform prediction over t; the empty prediction
// when t has no labels.
func Uniform(t *Labels) Prediction {
	if t.Len() == 0 {
		return Prediction{}
	}
	s := make([]float64, t.Len())
	u := 1 / float64(len(s))
	for id := range s {
		s[id] = u
	}
	// Uniform scores sum to 1 by construction; renormalizing would
	// divide by a float sum of 1/n terms and perturb the last bits.
	return Prediction{labels: t, scores: s}
}

// Labels returns the table p is over; nil for the empty prediction.
func (p Prediction) Labels() *Labels { return p.labels }

// Len returns the number of labels p scores.
func (p Prediction) Len() int { return len(p.scores) }

// Scores returns p's scores indexed by label id. Only the producer of
// a prediction writes them: a returned prediction is read-only.
func (p Prediction) Scores() []float64 { return p.scores }

// Score returns the score of label, 0 when p does not have it.
func (p Prediction) Score(label string) float64 {
	if id, ok := p.labels.ID(label); ok {
		return p.scores[id]
	}
	return 0
}

// Set sets the score of label. It panics when label is not in p's
// table: a learner scores exactly the labels it was trained with.
func (p Prediction) Set(label string, s float64) {
	id, ok := p.labels.ID(label)
	if !ok {
		panic(fmt.Sprintf("learn: label %q is not in the prediction's label table", label))
	}
	p.scores[id] = s
}

// In returns p's scores indexed by t's ids, for consumers that combine
// predictions label by label: p's own scores when p is over t, a
// shared all-zero row when p is empty. The row is read-only. Mixing
// label tables is a programming error, and In panics on it.
func (p Prediction) In(t *Labels) []float64 {
	switch {
	case p.labels == t:
		return p.scores
	case p.labels == nil:
		return t.zero
	case p.labels.same(t):
		return p.scores
	}
	panic(fmt.Sprintf("learn: prediction over %d labels read against another table of %d",
		p.labels.Len(), t.Len()))
}

// normBuf sizes Normalize's stack copy: label sets up to this size sort
// without a heap allocation (Real Estate II has 66 labels).
const normBuf = 128

// Normalize scales the prediction in place so its non-negative scores
// sum to 1 and returns it. Negative scores are clamped to 0 first. If
// every score is zero the prediction becomes uniform over its labels.
//
// The scores are summed in ascending value order, not id order: the
// order fixes the sum's rounding, and every pinned score, stacking
// weight and artifact was computed with this order, which also leaves
// the sum independent of label numbering. Non-negative floats order
// like their bit patterns, so the values sort as uint64s, which is
// cheaper than a float sort and gives the same sum bit for bit: a -0.0
// sorts last instead of among the zeros, and adding it changes no sum.
func (p Prediction) Normalize() Prediction {
	s := p.scores
	var buf [normBuf]uint64
	vals := buf[:0]
	if len(s) > len(buf) {
		vals = make([]uint64, 0, len(s))
	}
	for id, v := range s {
		if v < 0 {
			s[id] = 0
		} else {
			vals = append(vals, math.Float64bits(v))
		}
	}
	slices.Sort(vals)
	sum := 0.0
	for _, v := range vals {
		sum += math.Float64frombits(v)
	}
	if sum == 0 {
		if len(s) == 0 {
			return p
		}
		u := 1 / float64(len(s))
		for id := range s {
			s[id] = u
		}
		return p
	}
	for id := range s {
		s[id] /= sum
	}
	return p
}

// Best returns the label with the highest score, breaking ties by
// label order for determinism, and its score. The empty prediction
// returns ("", 0).
func (p Prediction) Best() (string, float64) {
	best, bestScore := -1, math.Inf(-1)
	for _, id := range p.labels.Sorted() {
		if s := p.scores[id]; s > bestScore {
			best, bestScore = id, s
		}
	}
	if best < 0 {
		return "", 0
	}
	return p.labels.names[best], bestScore
}

// Clone returns a copy of p with its own scores.
func (p Prediction) Clone() Prediction {
	return Prediction{labels: p.labels, scores: append([]float64(nil), p.scores...)}
}

// Map returns p's scores keyed by label, for the JSON response and
// callers outside the system; nothing inside it reads a map.
func (p Prediction) Map() map[string]float64 {
	out := make(map[string]float64, len(p.scores))
	for id, s := range p.scores {
		out[p.labels.names[id]] = s
	}
	return out
}
