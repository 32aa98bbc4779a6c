package learn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// pred builds the prediction Normalized makes of the given raw scores
// over labels (in that id order).
func pred(labels []string, scores ...float64) Prediction {
	return Normalized(LabelsOf(labels), append([]float64(nil), scores...))
}

// oneHot builds the prediction over labels that gives label all of
// the score.
func oneHot(labels []string, label string) Prediction {
	t := LabelsOf(labels)
	scores := make([]float64, t.Len())
	id, _ := t.ID(label)
	scores[id] = 1
	return Normalized(t, scores)
}

func TestPredictionNormalize(t *testing.T) {
	p := pred([]string{"A", "B", "C"}, 2, 1, 1)
	if math.Abs(p.Score("A")-0.5) > 1e-12 || math.Abs(p.Score("B")-0.25) > 1e-12 {
		t.Errorf("Normalize = %v", p.Map())
	}
}

func TestPredictionNormalizeClampsNegative(t *testing.T) {
	p := pred([]string{"A", "B"}, -1, 1)
	if p.Score("A") != 0 || p.Score("B") != 1 {
		t.Errorf("Normalize with negatives = %v", p.Map())
	}
}

func TestPredictionNormalizeAllZero(t *testing.T) {
	p := pred([]string{"A", "B"}, 0, 0)
	if math.Abs(p.Score("A")-0.5) > 1e-12 {
		t.Errorf("all-zero Normalize = %v, want uniform", p.Map())
	}
}

func TestPredictionBest(t *testing.T) {
	p := pred([]string{"ADDRESS", "DESCRIPTION", "AGENT-PHONE"}, 0.7, 0.2, 0.1)
	best, score := p.Best()
	if best != "ADDRESS" || score != 0.7 {
		t.Errorf("Best = %q, %g", best, score)
	}
	// Deterministic tie-break by label order, not id order.
	tie := pred([]string{"B", "A"}, 0.5, 0.5)
	if best, _ := tie.Best(); best != "A" {
		t.Errorf("tie Best = %q, want A", best)
	}
	empty := Prediction{}
	if best, score := empty.Best(); best != "" || score != 0 {
		t.Errorf("empty Best = %q, %g", best, score)
	}
}

func TestPredictionNormalizeProperty(t *testing.T) {
	f := func(a, b, c uint32) bool {
		// Scores in practice are bounded combinations of probabilities;
		// model them as non-negative values of moderate magnitude.
		p := pred([]string{"x", "y", "z"}, float64(a)/1e3, float64(b)/1e3, float64(c)/1e3)
		sum := p.Score("x") + p.Score("y") + p.Score("z")
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniform(t *testing.T) {
	p := Uniform(LabelsOf([]string{"a", "b", "c", "d"}))
	for _, c := range []string{"a", "b", "c", "d"} {
		if math.Abs(p.Score(c)-0.25) > 1e-12 {
			t.Errorf("Uniform[%s] = %g", c, p.Score(c))
		}
	}
	if Uniform(nil).Len() != 0 {
		t.Error("Uniform(nil) should be empty")
	}
}

func TestLabelsOfInterns(t *testing.T) {
	a := LabelsOf([]string{"PRICE", "AGENT-NAME", Other})
	b := LabelsOf(append([]string(nil), "PRICE", "AGENT-NAME", Other))
	if a != b {
		t.Error("LabelsOf returned two tables for one label sequence")
	}
	if c := LabelsOf([]string{"AGENT-NAME", "PRICE", Other}); c == a {
		t.Error("LabelsOf returned one table for two label orders")
	}
	if id, ok := a.ID("AGENT-NAME"); !ok || id != 1 || a.Name(1) != "AGENT-NAME" {
		t.Errorf("ID(AGENT-NAME) = %d, %v", id, ok)
	}
	// Sorted order: AGENT-NAME < OTHER < PRICE.
	if got := []int{a.SortedID(0), a.SortedID(1), a.SortedID(2)}; got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Errorf("SortedID = %v, want [1 2 0]", got)
	}
}

// TestLabelsNamesIsACopy writes into the slice Names returns: the
// table, which every learner and prediction of a model shares, must
// not change.
func TestLabelsNamesIsACopy(t *testing.T) {
	a := LabelsOf([]string{"COPY-A", "COPY-B", Other})
	a.Names()[0] = "X"
	if got := a.Name(0); got != "COPY-A" {
		t.Errorf("a write into Names changed the table: Name(0) = %q", got)
	}
	if id, ok := a.ID("COPY-A"); !ok || id != 0 {
		t.Errorf("ID(COPY-A) = %d, %v after a write into Names", id, ok)
	}
	if (*Labels)(nil).Names() != nil {
		t.Error("Names of a nil table is not nil")
	}
}

// TestLabelsOfConcurrent interns one fresh label list from several
// goroutines at once, as parallel training does: every caller must get
// the same table.
func TestLabelsOfConcurrent(t *testing.T) {
	names := []string{"CONCURRENT-A", "CONCURRENT-B", Other}
	got := make([]*Labels, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = LabelsOf(append([]string(nil), names...))
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Fatalf("goroutine %d got a different table", i)
		}
	}
}

// TestPredictionInMatchesByContent reads predictions over tables the
// intern map does not hold, as past its cap: a table over the same
// label sequence matches, another order does not.
func TestPredictionInMatchesByContent(t *testing.T) {
	names := []string{"A", "B", Other}
	a := LabelsOf(names)
	b := newLabels(names)
	if a == b {
		t.Fatal("newLabels returned the interned table")
	}
	p := Normalized(b, []float64{0, 0.75, 0.25})
	if got := p.In(a); &got.scores[0] != &p.scores[0] || got.At(1) != 0.75 {
		t.Errorf("In over an equal table = %v, want p's own scores", got.scores)
	}
	defer func() {
		if recover() == nil {
			t.Error("In accepted a prediction over another label order")
		}
	}()
	Uniform(newLabels([]string{"B", "A", Other})).In(a)
}

func TestPredictionInRejectsAnotherTable(t *testing.T) {
	a := LabelsOf([]string{"A", "B"})
	if got := (Prediction{}).In(a); len(got.scores) != 2 || got.At(0) != 0 || got.At(1) != 0 {
		t.Errorf("empty prediction In = %v, want zeros", got.scores)
	}
	p := pred([]string{"A", "B"}, 0.25, 0.75)
	if got := p.In(a); got.At(1) != 0.75 {
		t.Errorf("In = %v", got.scores)
	}
	defer func() {
		if recover() == nil {
			t.Error("In accepted a prediction over another label table")
		}
	}()
	pred([]string{"B", "A"}, 0.5, 0.5).In(a)
}

func TestExpandedName(t *testing.T) {
	in := Instance{
		TagName:  "phone",
		Path:     []string{"listing", "contact", "phone"},
		Synonyms: []string{"telephone"},
	}
	want := "phone listing contact phone telephone"
	if got := in.ExpandedName(); got != want {
		t.Errorf("ExpandedName = %q, want %q", got, want)
	}
}

// constLearner always predicts its fixed label; used to test CV plumbing.
type constLearner struct {
	label  string
	labels []string
	// trainedOn records how many examples this copy saw.
	trainedOn int
}

func (c *constLearner) Name() string { return "const" }
func (c *constLearner) Train(labels []string, examples []Example) error {
	c.labels = labels
	c.trainedOn = len(examples)
	return nil
}
func (c *constLearner) Predict(in Instance) Prediction {
	return oneHot(c.labels, c.label)
}

// memorizer predicts the label it saw for an identical tag name during
// training, uniform otherwise. Used to verify CV actually withholds the
// test fold.
type memorizer struct {
	labels []string
	seen   map[string]string
}

func (m *memorizer) Name() string { return "memorizer" }
func (m *memorizer) Train(labels []string, examples []Example) error {
	m.labels = labels
	m.seen = make(map[string]string)
	for _, ex := range examples {
		m.seen[ex.Instance.TagName] = ex.Label
	}
	return nil
}
func (m *memorizer) Predict(in Instance) Prediction {
	if l, ok := m.seen[in.TagName]; ok {
		return oneHot(m.labels, l)
	}
	return Uniform(LabelsOf(m.labels))
}

func TestCrossValidateAlignment(t *testing.T) {
	labels := []string{"A", "B"}
	examples := []Example{
		{Instance: Instance{TagName: "x1"}, Label: "A"},
		{Instance: Instance{TagName: "x2"}, Label: "B"},
		{Instance: Instance{TagName: "x3"}, Label: "A"},
		{Instance: Instance{TagName: "x4"}, Label: "B"},
		{Instance: Instance{TagName: "x5"}, Label: "A"},
	}
	preds, err := CrossValidate(func() Learner { return &constLearner{label: "A"} },
		labels, examples, 5, rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	if len(preds) != len(examples) {
		t.Fatalf("preds = %d, want %d", len(preds), len(examples))
	}
	for i, p := range preds {
		if p.Len() == 0 {
			t.Fatalf("pred %d is empty", i)
		}
		if best, _ := p.Best(); best != "A" {
			t.Errorf("pred %d Best = %q", i, best)
		}
	}
}

func TestCrossValidateWithholdsFold(t *testing.T) {
	// Each tag name appears exactly once, so a memorizer can never have
	// seen its own test instance during CV training: every CV prediction
	// must be uniform.
	labels := []string{"A", "B"}
	var examples []Example
	for i := 0; i < 10; i++ {
		examples = append(examples, Example{
			Instance: Instance{TagName: string(rune('a' + i))},
			Label:    labels[i%2],
		})
	}
	preds, err := CrossValidate(func() Learner { return &memorizer{} },
		labels, examples, 5, rand.New(rand.NewSource(7)), 1)
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	for i, p := range preds {
		if math.Abs(p.Score("A")-0.5) > 1e-12 {
			t.Errorf("pred %d = %v, want uniform (fold leaked)", i, p.Map())
		}
	}
}

func TestCrossValidateSmallInput(t *testing.T) {
	labels := []string{"A"}
	// d larger than n must degrade gracefully (leave-one-out).
	examples := []Example{
		{Instance: Instance{TagName: "x"}, Label: "A"},
		{Instance: Instance{TagName: "y"}, Label: "A"},
	}
	preds, err := CrossValidate(func() Learner { return &constLearner{label: "A"} },
		labels, examples, 5, rand.New(rand.NewSource(3)), 4)
	if err != nil || len(preds) != 2 {
		t.Fatalf("CrossValidate small: %v, %d preds", err, len(preds))
	}
	if _, err := CrossValidate(func() Learner { return &constLearner{label: "A"} },
		labels, examples, 1, rand.New(rand.NewSource(3)), 1); err == nil {
		t.Error("d=1 should be rejected")
	}
	preds, err = CrossValidate(func() Learner { return &constLearner{label: "A"} },
		labels, nil, 5, rand.New(rand.NewSource(3)), 1)
	if err != nil || preds != nil {
		t.Errorf("empty examples: %v, %v", preds, err)
	}
}

func TestAccuracy(t *testing.T) {
	labels := []string{"A", "B"}
	preds := []Prediction{
		pred(labels, 0.9, 0.1),
		pred(labels, 0.4, 0.6),
		pred(labels, 0.5, 0.3),
	}
	truth := []string{"A", "A", "A"}
	if got := Accuracy(preds, truth); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Accuracy = %g, want 2/3", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Error("empty Accuracy should be 0")
	}
}
