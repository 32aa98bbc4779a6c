package meta

import (
	"math"
	"testing"

	"repro/internal/learn"
)

func TestNormalizeWeights(t *testing.T) {
	w := []float64{2, 1, 1}
	normalizeWeights(w, 3)
	if math.Abs(w[0]-0.5) > 1e-12 || math.Abs(w[1]-0.25) > 1e-12 {
		t.Errorf("normalizeWeights = %v", w)
	}
	zero := []float64{0, 0}
	normalizeWeights(zero, 2)
	if zero[0] != 0.5 || zero[1] != 0.5 {
		t.Errorf("zero weights -> %v, want uniform", zero)
	}
}

func TestNormalizedWeightsSumToOne(t *testing.T) {
	st, err := Train(table,
		[]string{"oracle", "anti", "coin"},
		[]learn.Factory{
			func() learn.Learner { return &oracle{} },
			func() learn.Learner { return &antiOracle{} },
			func() learn.Learner { return &coin{} },
		},
		sharedExamples(), DefaultConfig(), 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range labels {
		sum := 0.0
		for _, n := range st.LearnerNames() {
			w := st.Weight(c, n)
			if w < 0 {
				t.Errorf("negative normalized weight %s/%s = %g", c, n, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("label %s weights sum to %g", c, sum)
		}
	}
}

func TestRawWeightsConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RawWeights = true
	st, err := Train(table,
		[]string{"oracle", "coin"},
		[]learn.Factory{
			func() learn.Learner { return &oracle{} },
			func() learn.Learner { return &coin{} },
		},
		sharedExamples(), cfg, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Raw NNLS weights need not sum to 1; the oracle regression weight
	// on a well-predicted label is close to 1 by itself.
	sum := st.Weight("ADDRESS", "oracle") + st.Weight("ADDRESS", "coin")
	if math.Abs(sum-1) < 1e-6 && st.Weight("ADDRESS", "coin") > 0 {
		t.Logf("raw weights coincidentally normalized: %g", sum)
	}
	if st.Weight("ADDRESS", "oracle") <= 0 {
		t.Errorf("oracle raw weight = %g, want > 0", st.Weight("ADDRESS", "oracle"))
	}
}

func TestAllowNegativeWeightsConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AllowNegativeWeights = true
	cfg.RawWeights = true
	_, err := Train(table,
		[]string{"oracle", "anti"},
		[]learn.Factory{
			func() learn.Learner { return &oracle{} },
			func() learn.Learner { return &antiOracle{} },
		},
		sharedExamples(), cfg, 11, 0)
	if err != nil {
		t.Fatalf("unconstrained regression config: %v", err)
	}
}

func TestWeightUnknownLearner(t *testing.T) {
	st, _ := Train(table, []string{"a"},
		[]learn.Factory{func() learn.Learner { return &coin{} }},
		nil, DefaultConfig(), 12, 0)
	if st.Weight("ADDRESS", "nope") != 0 {
		t.Error("unknown learner weight should be 0")
	}
	if st.Weight("NOPE", "a") != 0 {
		t.Error("unknown label weight should be 0")
	}
}
