package meta

import (
	"math"
	"strings"
	"testing"

	"repro/internal/learn"
)

var labels = []string{"ADDRESS", "AGENT-PHONE", "DESCRIPTION"}

// table is the label table of labels.
var table = learn.LabelsOf(labels)

// pred builds the prediction Normalized makes of label scores over
// table.
func pred(scores map[string]float64) learn.Prediction {
	row := make([]float64, table.Len())
	for c, s := range scores {
		id, _ := table.ID(c)
		row[id] = s
	}
	return learn.Normalized(table, row)
}

// oracle predicts the true label perfectly via a tag->label table.
type oracle struct {
	table  map[string]string
	labels []string
}

func (o *oracle) Name() string { return "oracle" }
func (o *oracle) Train(labels []string, examples []learn.Example) error {
	o.labels = labels
	o.table = make(map[string]string)
	for _, ex := range examples {
		o.table[ex.Instance.TagName] = ex.Label
	}
	return nil
}
func (o *oracle) Predict(in learn.Instance) learn.Prediction {
	t := learn.LabelsOf(o.labels)
	scores := make([]float64, t.Len())
	for id := range scores {
		scores[id] = 0.01
	}
	if l, ok := o.table[in.TagName]; ok {
		id, _ := t.ID(l)
		scores[id] = 1
	}
	return learn.Normalized(t, scores)
}

// antiOracle always puts its mass on the wrong label.
type antiOracle struct {
	oracle
}

func (a *antiOracle) Name() string { return "anti" }
func (a *antiOracle) Predict(in learn.Instance) learn.Prediction {
	t := learn.LabelsOf(a.labels)
	scores := make([]float64, t.Len())
	truth := a.table[in.TagName]
	for id, c := range t.Names() {
		if c == truth {
			scores[id] = 0.01
		} else {
			scores[id] = 1
		}
	}
	return learn.Normalized(t, scores)
}

// coin predicts uniformly: carries no information.
type coin struct{ labels []string }

func (c *coin) Name() string { return "coin" }
func (c *coin) Train(labels []string, _ []learn.Example) error {
	c.labels = labels
	return nil
}
func (c *coin) Predict(learn.Instance) learn.Prediction {
	return learn.Uniform(learn.LabelsOf(c.labels))
}

func sharedExamples() []learn.Example {
	// Tags generalize across examples so the oracle's CV copies can
	// learn them from other folds.
	tags := map[string]string{
		"location": "ADDRESS", "house-addr": "ADDRESS", "area": "ADDRESS",
		"phone": "AGENT-PHONE", "contact-phone": "AGENT-PHONE", "tel": "AGENT-PHONE",
		"comments": "DESCRIPTION", "extra-info": "DESCRIPTION", "desc": "DESCRIPTION",
	}
	var out []learn.Example
	for i := 0; i < 4; i++ {
		for tag, label := range tags {
			out = append(out, learn.Example{
				Instance: learn.Instance{TagName: tag},
				Label:    label,
			})
		}
	}
	return out
}

func TestTrainWeightsFavorGoodLearner(t *testing.T) {
	var seed int64 = 1
	st, err := Train(table,
		[]string{"oracle", "anti"},
		[]learn.Factory{
			func() learn.Learner { return &oracle{} },
			func() learn.Learner { return &antiOracle{} },
		},
		sharedExamples(), DefaultConfig(), seed, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for _, c := range labels {
		if st.Weight(c, "oracle") <= st.Weight(c, "anti") {
			t.Errorf("label %s: oracle weight %.3f <= anti weight %.3f",
				c, st.Weight(c, "oracle"), st.Weight(c, "anti"))
		}
	}
}

func TestCombineUsesWeights(t *testing.T) {
	var seed int64 = 2
	st, err := Train(table,
		[]string{"oracle", "anti"},
		[]learn.Factory{
			func() learn.Learner { return &oracle{} },
			func() learn.Learner { return &antiOracle{} },
		},
		sharedExamples(), DefaultConfig(), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Instance where the oracle says ADDRESS and the anti-oracle says
	// anything else: combined must follow the oracle.
	goodP := pred(map[string]float64{"ADDRESS": 0.9, "AGENT-PHONE": 0.05, "DESCRIPTION": 0.05})
	badP := pred(map[string]float64{"ADDRESS": 0.05, "AGENT-PHONE": 0.9, "DESCRIPTION": 0.05})
	combined := st.Combine([]learn.Prediction{goodP, badP})
	if best, _ := combined.Best(); best != "ADDRESS" {
		t.Errorf("Combine Best = %q, want ADDRESS; combined = %v", best, combined.Map())
	}
}

func TestCombinedBeatsUninformativeLearner(t *testing.T) {
	var seed int64 = 3
	st, err := Train(table,
		[]string{"oracle", "coin"},
		[]learn.Factory{
			func() learn.Learner { return &oracle{} },
			func() learn.Learner { return &coin{} },
		},
		sharedExamples(), DefaultConfig(), seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range labels {
		if st.Weight(c, "oracle") <= 0 {
			t.Errorf("oracle weight for %s = %.3f, want > 0", c, st.Weight(c, "oracle"))
		}
	}
}

func TestUniformWeightsConfig(t *testing.T) {
	cfg := Config{Folds: 5, UniformWeights: true}
	st, err := Train(table, []string{"a", "b"},
		[]learn.Factory{
			func() learn.Learner { return &coin{} },
			func() learn.Learner { return &coin{} },
		},
		sharedExamples(), cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range labels {
		if math.Abs(st.Weight(c, "a")-0.5) > 1e-12 {
			t.Errorf("uniform weight = %g, want 0.5", st.Weight(c, "a"))
		}
	}
}

func TestTrainNoExamples(t *testing.T) {
	st, err := Train(table, []string{"a"},
		[]learn.Factory{func() learn.Learner { return &coin{} }},
		nil, DefaultConfig(), 5, 0)
	if err != nil {
		t.Fatalf("Train with no examples: %v", err)
	}
	if st.Weight("ADDRESS", "a") != 1 {
		t.Errorf("single learner uniform weight = %g, want 1", st.Weight("ADDRESS", "a"))
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(table, []string{"a"}, nil, nil, DefaultConfig(), 0, 0); err == nil {
		t.Error("mismatched names/factories should error")
	}
	if _, err := Train(table, nil, nil, nil, DefaultConfig(), 0, 0); err == nil {
		t.Error("no learners should error")
	}
}

// TestLearnerNamesIsACopy writes into the slice LearnerNames returns:
// the stacker's names, which decide which learners it combines, must
// not change.
func TestLearnerNamesIsACopy(t *testing.T) {
	st, err := Train(table, []string{"a", "b"},
		[]learn.Factory{func() learn.Learner { return &coin{} }, func() learn.Learner { return &coin{} }},
		nil, DefaultConfig(), 5, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	st.LearnerNames()[0] = "X"
	if got := st.LearnerNames(); got[0] != "a" {
		t.Errorf("a write into LearnerNames changed the stacker's names to %v", got)
	}
}

func TestCombinePanicsOnArity(t *testing.T) {
	st, _ := Train(table, []string{"a"},
		[]learn.Factory{func() learn.Learner { return &coin{} }},
		nil, DefaultConfig(), 6, 0)
	defer func() {
		if recover() == nil {
			t.Error("Combine with wrong arity did not panic")
		}
	}()
	st.Combine([]learn.Prediction{{}, {}})
}

func TestCombinePanicsOnAnotherTable(t *testing.T) {
	st, _ := Train(table, []string{"a"},
		[]learn.Factory{func() learn.Learner { return &coin{} }},
		nil, DefaultConfig(), 6, 0)
	// An empty prediction counts as zeros.
	if got := st.Combine([]learn.Prediction{{}}); got.Len() != len(labels) {
		t.Errorf("Combine of an empty prediction has %d labels, want %d", got.Len(), len(labels))
	}
	defer func() {
		if recover() == nil {
			t.Error("Combine accepted a prediction over another label table")
		}
	}()
	other := learn.Uniform(learn.LabelsOf([]string{"DESCRIPTION", "ADDRESS", "AGENT-PHONE"}))
	st.Combine([]learn.Prediction{other})
}

func TestCombineIsNormalized(t *testing.T) {
	st, err := Train(table,
		[]string{"oracle", "anti"},
		[]learn.Factory{
			func() learn.Learner { return &oracle{} },
			func() learn.Learner { return &antiOracle{} },
		},
		sharedExamples(), DefaultConfig(), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	combined := st.Combine([]learn.Prediction{
		learn.Uniform(table), learn.Uniform(table),
	})
	sum := 0.0
	for _, c := range labels {
		if combined.Score(c) < 0 {
			t.Errorf("negative combined score: %v", combined.Map())
		}
		sum += combined.Score(c)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("combined sum = %g", sum)
	}
}

func TestStringMentionsWeights(t *testing.T) {
	st, _ := Train(table, []string{"a"},
		[]learn.Factory{func() learn.Learner { return &coin{} }},
		nil, DefaultConfig(), 8, 0)
	s := st.String()
	if !strings.Contains(s, "ADDRESS") || !strings.Contains(s, "a=") {
		t.Errorf("String() = %q", s)
	}
}

func TestPaperExampleWeights(t *testing.T) {
	// The running example of §3.2: W_ADDRESS_NameMatcher = 0.3 and
	// W_ADDRESS_NaiveBayes = 0.8 combine ⟨0.5⟩ and ⟨0.7⟩ into 0.71
	// before normalization.
	st := &Stacker{
		labels:       table,
		learnerNames: []string{"NameMatcher", "NaiveBayes"},
		weights: [][]float64{
			{0.3, 0.8}, // ADDRESS
			{0.3, 0.8}, // AGENT-PHONE
			{0.3, 0.8}, // DESCRIPTION
		},
	}
	nm := pred(map[string]float64{"ADDRESS": 0.5, "DESCRIPTION": 0.3, "AGENT-PHONE": 0.2})
	nb := pred(map[string]float64{"ADDRESS": 0.7, "DESCRIPTION": 0.3, "AGENT-PHONE": 0.0})
	combined := st.Combine([]learn.Prediction{nm, nb})
	// Unnormalized: ADDRESS 0.71, DESCRIPTION 0.33, AGENT-PHONE 0.06.
	wantAddr := 0.71 / (0.71 + 0.33 + 0.06)
	if math.Abs(combined.Score("ADDRESS")-wantAddr) > 1e-9 {
		t.Errorf("ADDRESS = %g, want %g", combined.Score("ADDRESS"), wantAddr)
	}
	if best, _ := combined.Best(); best != "ADDRESS" {
		t.Errorf("Best = %q", best)
	}
}
