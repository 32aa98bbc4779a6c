package learn

import (
	"math/rand"
	"testing"
)

// TestDeriveSeedPinned pins the derived-seed sequence. These exact
// values seed the per-task RNGs of the parallel pipeline (per-learner
// cross-validation, per-split evaluation runs); changing the derivation
// silently changes every published experiment number, so any diff here
// must be deliberate and called out in EXPERIMENTS.md.
func TestDeriveSeedPinned(t *testing.T) {
	cases := []struct {
		base int64
		idxs []int64
		want int64
	}{
		{7, nil, -7046029254386353134},
		{7, []int64{0}, -4030626764348681087},
		{7, []int64{1}, 3416750472713694478},
		{7, []int64{0, 0}, -4491184961607225312},
		{7, []int64{0, 1}, -7181643732540129161},
		{7, []int64{1, 0}, 7954437317431929052},
		{1, []int64{2}, -5380434492612050522},
		{0, nil, -7046029254386353131},
		{-1, []int64{3}, -358427061850652455},
	}
	for _, c := range cases {
		if got := DeriveSeed(c.base, c.idxs...); got != c.want {
			t.Errorf("DeriveSeed(%d, %v) = %d, want %d", c.base, c.idxs, got, c.want)
		}
	}
}

// TestDeriveSeedDistinct checks that nearby task coordinates get
// distinct, order-sensitive seeds — the property that lets parallel
// tasks derive independent RNGs from (Seed, sample, split) without
// sharing rand state.
func TestDeriveSeedDistinct(t *testing.T) {
	seen := make(map[int64][2]int64)
	for s := int64(0); s < 8; s++ {
		for i := int64(0); i < 8; i++ {
			seed := DeriveSeed(42, s, i)
			if prev, dup := seen[seed]; dup {
				t.Fatalf("DeriveSeed(42,%d,%d) collides with (42,%d,%d)", s, i, prev[0], prev[1])
			}
			seen[seed] = [2]int64{s, i}
		}
	}
	if DeriveSeed(42, 1, 2) == DeriveSeed(42, 2, 1) {
		t.Error("DeriveSeed must be order-sensitive in its coordinates")
	}
}

// TestCrossValidateWorkersDeterministic checks the fold fan-out: the
// same seed must produce identical CV predictions at every pool size.
func TestCrossValidateWorkersDeterministic(t *testing.T) {
	labels := []string{"A", "B"}
	var examples []Example
	for i := 0; i < 20; i++ {
		examples = append(examples, Example{
			Instance: Instance{TagName: string(rune('a' + i%9))},
			Label:    labels[i%2],
		})
	}
	run := func(workers int) []Prediction {
		preds, err := CrossValidate(func() Learner { return &memorizer{} },
			labels, examples, 5, rand.New(rand.NewSource(DeriveSeed(7, 3))), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return preds
	}
	base := run(1)
	for _, workers := range []int{2, 4, 0} {
		got := run(workers)
		for i := range base {
			for _, c := range labels {
				if got[i].Score(c) != base[i].Score(c) {
					t.Fatalf("workers=%d pred[%d][%s] = %v, serial = %v",
						workers, i, c, got[i].Score(c), base[i].Score(c))
				}
			}
		}
	}
}
