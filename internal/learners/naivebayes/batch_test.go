package naivebayes

import (
	"fmt"
	"testing"

	"repro/internal/learn"
)

func trainedBatch(t *testing.T) *Learner {
	t.Helper()
	l := New()
	labels := []string{"ADDRESS", "DESCRIPTION", "PRICE", learn.Other}
	var exs []learn.Example
	for i := 0; i < 20; i++ {
		exs = append(exs,
			learn.Example{Instance: learn.Instance{Content: fmt.Sprintf("12%d main street apt %d", i, i)}, Label: "ADDRESS"},
			learn.Example{Instance: learn.Instance{Content: fmt.Sprintf("beautiful great home with %d rooms", i)}, Label: "DESCRIPTION"},
			learn.Example{Instance: learn.Instance{Content: fmt.Sprintf("$%d900", i)}, Label: "PRICE"},
		)
	}
	if err := l.Train(labels, exs); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestPredictBatchMatchesPredict pins the fused batched sweep to the
// per-instance path bit for bit, including duplicate contents and
// out-of-vocabulary inputs.
func TestPredictBatchMatchesPredict(t *testing.T) {
	l := trainedBatch(t)
	contents := []string{
		"450 oak avenue", "beautiful spacious home", "$239900",
		"unseen tokens entirely", "", "450 oak avenue", "$239900",
	}
	ins := make([]learn.Instance, len(contents))
	for i, ct := range contents {
		ins[i] = learn.Instance{Content: ct}
	}
	batch := l.PredictBatch(ins)
	if len(batch) != len(ins) {
		t.Fatalf("PredictBatch returned %d predictions for %d instances", len(batch), len(ins))
	}
	for i, in := range ins {
		want := l.Predict(in)
		if batch[i].Len() != want.Len() {
			t.Fatalf("instance %d: %d labels, want %d", i, batch[i].Len(), want.Len())
		}
		for c, s := range want.Map() {
			if g, ok := batch[i].Map()[c]; !ok || g != s {
				t.Fatalf("instance %d (%q) label %s = %v, want %v (bit-identical)", i, contents[i], c, g, s)
			}
		}
	}
	// Duplicate contents share one prediction object (read-only
	// contract), not just equal values.
	if &batch[0] == &batch[5] {
		t.Fatal("unreachable")
	}
}

// TestPredictBatchUntrained matches Predict's uniform fallback.
func TestPredictBatchUntrained(t *testing.T) {
	l := New()
	ins := []learn.Instance{{Content: "a"}, {Content: "b"}}
	batch := l.PredictBatch(ins)
	for i, in := range ins {
		want := l.Predict(in)
		if batch[i].Len() != want.Len() {
			t.Fatalf("instance %d: %d labels, want %d", i, batch[i].Len(), want.Len())
		}
		for c, s := range want.Map() {
			if batch[i].Score(c) != s {
				t.Fatalf("instance %d label %s differs", i, c)
			}
		}
	}
}
