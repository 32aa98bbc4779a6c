package naivebayes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/learn"
	"repro/internal/text"
)

var labels = []string{"ADDRESS", "AGENT-PHONE", "DESCRIPTION"}

func ex(content, label string) learn.Example {
	return learn.Example{Instance: learn.Instance{Content: content}, Label: label}
}

func trained(t *testing.T) *Learner {
	t.Helper()
	l := New()
	err := l.Train(labels, []learn.Example{
		ex("Miami, FL", "ADDRESS"),
		ex("Boston, MA", "ADDRESS"),
		ex("Seattle, WA", "ADDRESS"),
		ex("(305) 729 0831", "AGENT-PHONE"),
		ex("(617) 253 1429", "AGENT-PHONE"),
		ex("Fantastic house, great location", "DESCRIPTION"),
		ex("Great beach, nice area", "DESCRIPTION"),
		ex("Beautiful yard, fantastic view", "DESCRIPTION"),
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return l
}

func TestPredictIndicativeWords(t *testing.T) {
	l := trained(t)
	// "fantastic" and "great" appear frequently in house descriptions —
	// the paper's flagship example.
	best, _ := l.Predict(learn.Instance{Content: "Fantastic location, great view"}).Best()
	if best != "DESCRIPTION" {
		t.Errorf("Best = %q, want DESCRIPTION", best)
	}
}

func TestPredictState(t *testing.T) {
	l := trained(t)
	best, _ := l.Predict(learn.Instance{Content: "Portland, OR"}).Best()
	// Shares no tokens with training addresses except the comma-split
	// pattern; class priors and unseen-token smoothing decide. The key
	// property: DESCRIPTION must not win (its tokens are absent).
	if best == "DESCRIPTION" {
		t.Errorf("Best = DESCRIPTION for a short address-like value")
	}
}

func TestPredictSharedToken(t *testing.T) {
	l := trained(t)
	best, _ := l.Predict(learn.Instance{Content: "Miami area"}).Best()
	if best != "ADDRESS" && best != "DESCRIPTION" {
		t.Errorf("Best = %q, want ADDRESS or DESCRIPTION", best)
	}
	p := l.Predict(learn.Instance{Content: "Miami"})
	if p.Score("ADDRESS") <= p.Score("AGENT-PHONE") {
		t.Errorf("ADDRESS %g should beat AGENT-PHONE %g on 'Miami'",
			p.Score("ADDRESS"), p.Score("AGENT-PHONE"))
	}
}

func TestPredictIsDistribution(t *testing.T) {
	l := trained(t)
	p := l.Predict(learn.Instance{Content: "great fantastic 305"})
	sum := 0.0
	for _, c := range labels {
		if p.Score(c) < 0 {
			t.Errorf("negative score: %v", p)
		}
		sum += p.Score(c)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %g", sum)
	}
}

func TestPredictUntrained(t *testing.T) {
	l := New()
	if err := l.Train(labels, nil); err != nil {
		t.Fatalf("Train(empty): %v", err)
	}
	p := l.Predict(learn.Instance{Content: "anything"})
	for _, c := range labels {
		if math.Abs(p.Score(c)-1.0/3) > 1e-9 {
			t.Errorf("untrained prediction not uniform: %v", p)
		}
	}
}

func TestTrainRejectsUnknownLabel(t *testing.T) {
	l := New()
	err := l.Train(labels, []learn.Example{ex("x", "NOT-A-LABEL")})
	if err == nil {
		t.Error("Train accepted an example outside the label set")
	}
}

func TestTrainBagsMatchesTrain(t *testing.T) {
	examples := []learn.Example{
		ex("great house", "DESCRIPTION"),
		ex("Miami, FL", "ADDRESS"),
	}
	l1 := New()
	if err := l1.Train(labels, examples); err != nil {
		t.Fatal(err)
	}
	l2 := New()
	bags := make([]text.Bag, len(examples))
	bl := make([]string, len(examples))
	for i, e := range examples {
		bags[i] = text.NewBag(Tokens(e.Instance.Content))
		bl[i] = e.Label
	}
	if err := l2.TrainBags(labels, bags, bl); err != nil {
		t.Fatal(err)
	}
	probe := learn.Instance{Content: "great location in Miami"}
	p1, p2 := l1.Predict(probe), l2.Predict(probe)
	for _, c := range labels {
		if math.Abs(p1.Score(c)-p2.Score(c)) > 1e-12 {
			t.Errorf("Train vs TrainBags differ on %s: %g vs %g", c, p1.Score(c), p2.Score(c))
		}
	}
}

func TestTrainBagsLengthMismatch(t *testing.T) {
	l := New()
	if err := l.TrainBags(labels, []text.Bag{{}}, nil); err == nil {
		t.Error("TrainBags length mismatch accepted")
	}
}

func TestLogLikelihoodOrdering(t *testing.T) {
	l := trained(t)
	descBag := text.NewBag(Tokens("fantastic great house"))
	if l.LogLikelihood(descBag, "DESCRIPTION") <= l.LogLikelihood(descBag, "AGENT-PHONE") {
		t.Error("LogLikelihood should favour DESCRIPTION for description text")
	}
}

// TestNBLearnsSyntheticSeparation: on a generated two-class corpus with
// disjoint vocabularies NB must reach perfect held-out accuracy.
func TestNBLearnsSyntheticSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocabA := []string{"alpha", "amber", "apple", "arrow"}
	vocabB := []string{"bravo", "birch", "bubble", "banner"}
	gen := func(vocab []string) string {
		s := ""
		for i := 0; i < 5; i++ {
			s += vocab[rng.Intn(len(vocab))] + " "
		}
		return s
	}
	var train []learn.Example
	for i := 0; i < 30; i++ {
		train = append(train, ex(gen(vocabA), "A"), ex(gen(vocabB), "B"))
	}
	l := New()
	if err := l.Train([]string{"A", "B"}, train); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if best, _ := l.Predict(learn.Instance{Content: gen(vocabA)}).Best(); best != "A" {
			t.Fatalf("iteration %d: misclassified class-A text", i)
		}
		if best, _ := l.Predict(learn.Instance{Content: gen(vocabB)}).Best(); best != "B" {
			t.Fatalf("iteration %d: misclassified class-B text", i)
		}
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("Fantastic houses!")
	want := []string{"fantast", "hous"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

// TestPosteriorMatchesNaiveFormula checks the precomputed log-table
// predict path against the textbook formula computed directly from the
// training examples with string-keyed maps: for random documents over a
// mixed seen/unseen token alphabet, the posterior of every label agrees
// within 1e-12.
func TestPosteriorMatchesNaiveFormula(t *testing.T) {
	examples := []learn.Example{
		ex("atlanta georgia main street", "ADDRESS"),
		ex("206 smith avenue seattle", "ADDRESS"),
		ex("call 555 1234 now", "AGENT-PHONE"),
		ex("phone 206 555 9999", "AGENT-PHONE"),
		ex("beautiful great house with yard", "DESCRIPTION"),
		ex("great view of the lake", "DESCRIPTION"),
	}
	l := New()
	if err := l.Train(labels, examples); err != nil {
		t.Fatal(err)
	}

	// Reference model: recompute counts straight from the examples.
	tokenCount := map[string]map[string]float64{} // label -> token -> n
	totalCount := map[string]float64{}
	docCount := map[string]float64{}
	vocab := map[string]bool{}
	for _, e := range examples {
		if tokenCount[e.Label] == nil {
			tokenCount[e.Label] = map[string]float64{}
		}
		docCount[e.Label]++
		for _, w := range Tokens(e.Instance.Content) {
			tokenCount[e.Label][w]++
			totalCount[e.Label]++
			vocab[w] = true
		}
	}
	numDocs := float64(len(examples))
	vocabSize := float64(len(vocab))
	refPosterior := func(bag text.Bag) map[string]float64 {
		logs := map[string]float64{}
		maxLog := math.Inf(-1)
		for _, c := range labels {
			lp := math.Log((docCount[c] + 1) / (numDocs + float64(len(labels))))
			denom := totalCount[c] + vocabSize
			for w, n := range bag {
				lp += float64(n) * math.Log((tokenCount[c][w]+1)/denom)
			}
			logs[c] = lp
			if lp > maxLog {
				maxLog = lp
			}
		}
		sum := 0.0
		for _, c := range labels {
			logs[c] = math.Exp(logs[c] - maxLog)
			sum += logs[c]
		}
		for _, c := range labels {
			logs[c] /= sum
		}
		return logs
	}

	seen := []string{"atlanta", "street", "555", "206", "great", "house", "lake", "phone"}
	unseen := []string{"zebra", "quux", "flume", "98"}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		bag := text.Bag{}
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			bag[seen[rng.Intn(len(seen))]] += 1 + rng.Intn(3)
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			bag[unseen[rng.Intn(len(unseen))]] += 1 + rng.Intn(2)
		}
		got := l.PredictBag(bag)
		want := refPosterior(bag)
		for _, c := range labels {
			if math.Abs(got.Score(c)-want[c]) > 1e-12 {
				t.Fatalf("trial %d label %s: table path %.17g, naive formula %.17g",
					trial, c, got.Score(c), want[c])
			}
		}
	}
}
