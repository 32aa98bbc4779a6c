package whirl

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/learn"
)

func nameExtractor(in learn.Instance) string { return in.ExpandedName() }

// scoresAddr returns the address of p's score row, which tells a
// shared prediction from an equal copy.
func scoresAddr(p learn.Prediction) uintptr {
	return reflect.ValueOf(p).FieldByName("scores").Pointer()
}

func ex(tag, label string) learn.Example {
	return learn.Example{Instance: learn.Instance{TagName: tag}, Label: label}
}

var labels = []string{"ADDRESS", "AGENT-PHONE", "DESCRIPTION"}

func trained(t *testing.T) *Classifier {
	t.Helper()
	c := New("test", nameExtractor, DefaultConfig())
	err := c.Train(labels, []learn.Example{
		ex("location", "ADDRESS"),
		ex("house-addr", "ADDRESS"),
		ex("phone", "AGENT-PHONE"),
		ex("agent-phone", "AGENT-PHONE"),
		ex("comments", "DESCRIPTION"),
		ex("detailed-desc", "DESCRIPTION"),
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return c
}

func TestPredictSharedToken(t *testing.T) {
	c := trained(t)
	// "work-phone" shares the token "phone" with AGENT-PHONE examples.
	best, score := c.Predict(learn.Instance{TagName: "work-phone"}).Best()
	if best != "AGENT-PHONE" {
		t.Errorf("Best = %q (%.3f), want AGENT-PHONE", best, score)
	}
}

func TestPredictExactName(t *testing.T) {
	c := trained(t)
	for tag, want := range map[string]string{
		"location": "ADDRESS",
		"phone":    "AGENT-PHONE",
		"comments": "DESCRIPTION",
	} {
		if best, _ := c.Predict(learn.Instance{TagName: tag}).Best(); best != want {
			t.Errorf("Predict(%s).Best = %q, want %q", tag, best, want)
		}
	}
}

func TestPredictUnknownNameIsSpread(t *testing.T) {
	c := trained(t)
	p := c.Predict(learn.Instance{TagName: "zzzz"})
	// No shared tokens: smoothing only, so the prediction is uniform.
	for _, l := range labels {
		if math.Abs(p.Score(l)-1.0/3) > 1e-9 {
			t.Errorf("unknown name score[%s] = %g, want 1/3", l, p.Score(l))
		}
	}
}

func TestPredictionIsDistribution(t *testing.T) {
	c := trained(t)
	p := c.Predict(learn.Instance{TagName: "agent-phone"})
	sum := 0.0
	for _, l := range labels {
		if p.Score(l) < 0 {
			t.Errorf("negative score for %s: %g", l, p.Score(l))
		}
		sum += p.Score(l)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("scores sum to %g, want 1", sum)
	}
}

func TestSynonymExpansionHelps(t *testing.T) {
	c := trained(t)
	// "contact-tel" alone shares nothing; the synonym "phone" rescues it.
	with := c.Predict(learn.Instance{TagName: "tel", Synonyms: []string{"phone"}})
	without := c.Predict(learn.Instance{TagName: "tel"})
	if with.Score("AGENT-PHONE") <= without.Score("AGENT-PHONE") {
		t.Errorf("synonym expansion did not raise AGENT-PHONE: %g vs %g",
			with.Score("AGENT-PHONE"), without.Score("AGENT-PHONE"))
	}
}

func TestTrainErrors(t *testing.T) {
	c := New("test", nameExtractor, DefaultConfig())
	if err := c.Train(nil, nil); err == nil {
		t.Error("Train with no labels should error")
	}
}

func TestPredictUntrainedStore(t *testing.T) {
	c := New("test", nameExtractor, DefaultConfig())
	if err := c.Train(labels, nil); err != nil {
		t.Fatalf("Train empty: %v", err)
	}
	p := c.Predict(learn.Instance{TagName: "phone"})
	if p.Len() != len(labels) {
		t.Fatalf("prediction over %d labels, want %d", p.Len(), len(labels))
	}
	if c.NumStored() != 0 {
		t.Errorf("NumStored = %d, want 0", c.NumStored())
	}
}

func TestMaxNeighborsCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxNeighbors = 1
	c := New("test", nameExtractor, cfg)
	// Many weak DESCRIPTION neighbours vs one exact AGENT-PHONE match:
	// with k=1 the exact match dominates.
	exs := []learn.Example{ex("phone", "AGENT-PHONE")}
	for i := 0; i < 10; i++ {
		exs = append(exs, ex("phone extension info", "DESCRIPTION"))
	}
	if err := c.Train(labels, exs); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if best, _ := c.Predict(learn.Instance{TagName: "phone"}).Best(); best != "AGENT-PHONE" {
		t.Errorf("k=1 Best = %q, want AGENT-PHONE", best)
	}
}

func TestMinSimilarityThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinSimilarity = 0.99 // effectively require near-identical text
	c := New("test", nameExtractor, cfg)
	if err := c.Train(labels, []learn.Example{
		ex("phone number of agent", "AGENT-PHONE"),
	}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	p := c.Predict(learn.Instance{TagName: "phone"})
	// Partial overlap is below the threshold: uniform fallback.
	if math.Abs(p.Score("AGENT-PHONE")-1.0/3) > 1e-9 {
		t.Errorf("threshold not applied: %v", p)
	}
}

func TestDedupeBoundsConfidence(t *testing.T) {
	// Forty copies of a partial match must score like one piece of
	// evidence, not forty: the store deduplicates by (text, label).
	c := New("test", nameExtractor, DefaultConfig())
	var exs []learn.Example
	for i := 0; i < 40; i++ {
		exs = append(exs, ex("phone number", "AGENT-PHONE"))
	}
	exs = append(exs, ex("location", "ADDRESS"))
	if err := c.Train(labels, exs); err != nil {
		t.Fatal(err)
	}
	if c.NumStored() != 2 {
		t.Errorf("NumStored = %d, want 2 after dedupe", c.NumStored())
	}
	// Forty duplicates must predict exactly like a single example: the
	// noisy-or sees one piece of evidence either way.
	single := New("test", nameExtractor, DefaultConfig())
	if err := single.Train(labels, []learn.Example{
		ex("phone number", "AGENT-PHONE"),
		ex("location", "ADDRESS"),
	}); err != nil {
		t.Fatal(err)
	}
	pDup := c.Predict(learn.Instance{TagName: "phone"})
	pOne := single.Predict(learn.Instance{TagName: "phone"})
	for _, l := range pOne.Labels().Names() {
		if math.Abs(pDup.Score(l)-pOne.Score(l)) > 1e-12 {
			t.Errorf("duplicates changed prediction for %s: %g vs %g", l, pDup.Score(l), pOne.Score(l))
		}
	}
}

func TestPredictCacheConsistent(t *testing.T) {
	c := trained(t)
	in := learn.Instance{TagName: "phone"}
	first := c.Predict(in)
	second := c.Predict(in) // served from cache
	for l, s := range first.Map() {
		if math.Abs(second.Score(l)-s) > 1e-12 {
			t.Errorf("cached prediction differs for %s: %g vs %g", l, second.Score(l), s)
		}
	}
	// Predictions are immutable, so the cache returns the shared
	// instance rather than rebuilding it per hit.
	if scoresAddr(first) != scoresAddr(second) {
		t.Error("cache hit returned a copy, not the shared prediction")
	}
}

func TestRetrainInvalidatesCache(t *testing.T) {
	c := New("test", nameExtractor, DefaultConfig())
	if err := c.Train(labels, []learn.Example{ex("phone", "AGENT-PHONE")}); err != nil {
		t.Fatal(err)
	}
	before := c.Predict(learn.Instance{TagName: "phone"})
	if err := c.Train(labels, []learn.Example{ex("phone", "DESCRIPTION")}); err != nil {
		t.Fatal(err)
	}
	after := c.Predict(learn.Instance{TagName: "phone"})
	if best, _ := after.Best(); best != "DESCRIPTION" {
		t.Errorf("stale cache after retrain: before=%v after=%v", before, after)
	}
}
