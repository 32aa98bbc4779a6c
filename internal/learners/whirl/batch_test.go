package whirl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/learn"
)

// trainedLarge returns a classifier with enough distinct stored
// examples that predictions differ meaningfully across inputs.
func trainedLarge(t *testing.T) *Classifier {
	t.Helper()
	c := New("test", nameExtractor, DefaultConfig())
	var exs []learn.Example
	for i := 0; i < 30; i++ {
		exs = append(exs,
			ex(fmt.Sprintf("street addr city-%d", i), "ADDRESS"),
			ex(fmt.Sprintf("phone ext-%d", i), "AGENT-PHONE"),
			ex(fmt.Sprintf("lovely description %d", i), "DESCRIPTION"),
		)
	}
	if err := c.Train(labels, exs); err != nil {
		t.Fatal(err)
	}
	return c
}

// queryTags returns n deterministic query tag names that mix cache
// hits, misses, and token overlap with the training data.
func queryTags(n int) []string {
	rng := rand.New(rand.NewSource(7))
	out := make([]string, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = fmt.Sprintf("street addr city-%d", rng.Intn(40))
		case 1:
			out[i] = fmt.Sprintf("phone ext-%d", rng.Intn(40))
		case 2:
			out[i] = fmt.Sprintf("description %d", rng.Intn(40))
		default:
			out[i] = fmt.Sprintf("unrelated-%d", rng.Intn(40))
		}
	}
	return out
}

// TestPredictBatchMatchesPredict pins the batched path to the
// per-instance path bit for bit, including duplicate instances, cache
// hits on a second call, and out-of-vocabulary inputs.
func TestPredictBatchMatchesPredict(t *testing.T) {
	c := trainedLarge(t)
	tags := queryTags(48)
	// Duplicates within the batch exercise the dedup path.
	tags = append(tags, tags[0], tags[3], tags[3])
	ins := make([]learn.Instance, len(tags))
	for i, tag := range tags {
		ins[i] = learn.Instance{TagName: tag}
	}
	fresh := trainedLarge(t)
	batch := c.PredictBatch(ins)
	if len(batch) != len(ins) {
		t.Fatalf("PredictBatch returned %d predictions for %d instances", len(batch), len(ins))
	}
	for i, in := range ins {
		assertSamePrediction(t, fmt.Sprintf("instance %d (%s)", i, tags[i]), batch[i], fresh.Predict(in))
	}
	// Second batch is served from the cache and must not drift.
	again := c.PredictBatch(ins)
	for i := range ins {
		assertSamePrediction(t, fmt.Sprintf("cached instance %d", i), again[i], batch[i])
	}
}

// TestPredictBatchUntrained matches Predict's untrained fallback.
func TestPredictBatchUntrained(t *testing.T) {
	c := New("test", nameExtractor, DefaultConfig())
	if err := c.Train(labels, nil); err != nil {
		t.Fatal(err)
	}
	ins := []learn.Instance{{TagName: "phone"}, {TagName: "addr"}}
	batch := c.PredictBatch(ins)
	for i, in := range ins {
		assertSamePrediction(t, fmt.Sprintf("untrained instance %d", i), batch[i], c.Predict(in))
	}
}

func assertSamePrediction(t *testing.T, ctx string, got, want learn.Prediction) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d labels, want %d", ctx, got.Len(), want.Len())
	}
	for l, s := range want.Map() {
		if g, ok := got.Map()[l]; !ok || g != s {
			t.Fatalf("%s: label %s = %v, want %v (bit-identical)", ctx, l, g, s)
		}
	}
}
