package xmllearner_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/learn"
	"repro/internal/learners/xmllearner"
)

// TestSparseBagMatchesTokenBag pins the id path against the string
// path on every instance of a held-out source of each domain: the bag
// SparseBag builds from vocabulary ids equals the vocabulary's
// projection of TokenBag's string bag, with the match labeler, with a
// nil labeler and for the flat form of the instance, and Predict
// equals PredictBag over TokenBag's bag bit for bit. A learner
// restored from its state predicts the same bits.
func TestSparseBagMatchesTokenBag(t *testing.T) {
	for _, d := range datagen.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			specs := d.Sources()
			var train []*core.Source
			for _, spec := range specs[:len(specs)-1] {
				train = append(train, spec.Generate(8, 3))
			}
			test := specs[len(specs)-1].Generate(8, 3)
			cfg := core.DefaultConfig()
			cfg.Workers = 2
			sys, err := core.Train(d.Mediated(), train, cfg)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			var xl *xmllearner.Learner
			for _, l := range sys.State().Learners {
				if x, ok := l.(*xmllearner.Learner); ok {
					xl = x
				}
			}
			if xl == nil || xl.MatchLabeler() == nil {
				t.Fatal("trained system has no XML learner with a match labeler")
			}
			restored, err := xmllearner.Restore(xl.State())
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			restored.SetMatchLabeler(xl.MatchLabeler())

			cols, err := core.CollectColumns(context.Background(), d.Mediated(), test, 0)
			if err != nil {
				t.Fatalf("CollectColumns: %v", err)
			}
			n := 0
			for _, tag := range test.Schema.Tags() {
				for _, in := range cols[tag] {
					flat := in
					flat.Node = nil
					checkBag(t, xl, in, xl.MatchLabeler())
					checkBag(t, xl, in, nil)
					checkBag(t, xl, flat, nil)
					want := xl.PredictBag(xl.TokenBag(in, xl.MatchLabeler()))
					if got := xl.Predict(in); !sameBits(got, want) {
						t.Fatalf("%s %v: Predict differs from PredictBag(TokenBag)", tag, in.Path)
					}
					if got := restored.Predict(in); !sameBits(got, want) {
						t.Fatalf("%s %v: restored Predict differs", tag, in.Path)
					}
					n++
				}
			}
			if n == 0 {
				t.Fatal("held-out source has no instances")
			}
		})
	}
}

// checkBag requires the id bag of in to equal the projection of its
// string bag.
func checkBag(t *testing.T, xl *xmllearner.Learner, in learn.Instance, labeler xmllearner.NodeLabeler) {
	t.Helper()
	want := xl.Vocab().SparseBag(xl.TokenBag(in, labeler))
	got := xl.SparseBag(in, labeler)
	if got.OOV != want.OOV || !slices.Equal(got.Terms, want.Terms) {
		t.Fatalf("%s %v (node %t, labeler %t): id bag %v, want %v",
			in.TagName, in.Path, in.Node != nil, labeler != nil, got, want)
	}
}

// sameBits reports whether two predictions are over the same labels
// with bit-identical scores.
func sameBits(a, b learn.Prediction) bool {
	if !slices.Equal(a.Labels().Names(), b.Labels().Names()) {
		return false
	}
	for id := 0; id < a.Len(); id++ {
		if math.Float64bits(a.At(id)) != math.Float64bits(b.At(id)) {
			return false
		}
	}
	return true
}

// TestSparseBagUntrained: before training every token is out of
// vocabulary, and prediction is the untrained fallback.
func TestSparseBagUntrained(t *testing.T) {
	l := xmllearner.New(nil, nil)
	in := learn.Instance{Content: "great house"}
	if sb := l.SparseBag(in, nil); len(sb.Terms) != 0 || sb.OOV != 2 {
		t.Errorf("untrained SparseBag = %+v, want 2 OOV tokens", sb)
	}
	if p := l.Predict(in); p.Len() != 0 {
		t.Errorf("untrained Predict = %v, want the empty prediction", p)
	}
}
