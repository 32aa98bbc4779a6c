package predtest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/meta"
)

// trials is the number of random cases per label count.
const trials = 300

// sameBits fails t unless dense holds exactly ref's labels and scores,
// bit for bit.
func sameBits(t *testing.T, what string, dense learn.Prediction, ref mapPred) {
	t.Helper()
	if dense.Len() != len(ref) {
		t.Fatalf("%s: %d labels, reference %d", what, dense.Len(), len(ref))
	}
	for c, want := range ref {
		if got := dense.Score(c); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s = %.17g, reference %.17g", what, c, got, want)
		}
	}
}

// random returns the prediction Normalized makes of Scores(rng, t.Len())
// over t.
func random(rng *rand.Rand, t *learn.Labels) learn.Prediction {
	return learn.Normalized(t, Scores(rng, t.Len()))
}

// toMap returns p as a reference map; the empty prediction is the empty
// map.
func toMap(p learn.Prediction) mapPred {
	return mapPred(p.Map())
}

func TestNormalizeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range Sizes {
		table := learn.LabelsOf(Labels(rng, n))
		for i := 0; i < trials; i++ {
			raw := Scores(rng, n)
			ref := make(mapPred, n)
			for id, c := range table.Names() {
				ref[c] = raw[id]
			}
			sameBits(t, "Normalized", learn.Normalized(table, raw), ref.normalize())
		}
	}
	if got := learn.Normalized(nil, nil); got.Len() != 0 {
		t.Errorf("Normalized over no labels has %d labels", got.Len())
	}
}

func TestBestMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range Sizes {
		table := learn.LabelsOf(Labels(rng, n))
		for i := 0; i < trials; i++ {
			p := random(rng, table)
			gotLabel, gotScore := p.Best()
			wantLabel, wantScore := toMap(p).best()
			if gotLabel != wantLabel || math.Float64bits(gotScore) != math.Float64bits(wantScore) {
				t.Fatalf("n=%d: Best = %s %.17g, reference %s %.17g", n, gotLabel, gotScore, wantLabel, wantScore)
			}
		}
	}
	// The empty prediction is the one score row without a positive
	// score: Normalized makes an all-zero row uniform.
	gotLabel, gotScore := learn.Prediction{}.Best()
	if wantLabel, wantScore := (mapPred{}).best(); gotLabel != wantLabel || gotScore != wantScore {
		t.Errorf("empty: Best = %q %g, reference %q %g", gotLabel, gotScore, wantLabel, wantScore)
	}
}

// randomStacker returns a stacker over table with k learners and random
// weights, some zero, and its state.
func randomStacker(t *testing.T, rng *rand.Rand, table *learn.Labels, k int) (*meta.Stacker, *meta.StackerState) {
	t.Helper()
	st := &meta.StackerState{Labels: table.Names(), Weights: make([][]float64, table.Len())}
	for j := 0; j < k; j++ {
		st.LearnerNames = append(st.LearnerNames, string(rune('a'+j)))
	}
	for id := range st.Weights {
		w := make([]float64, k)
		for j := range w {
			if rng.Intn(5) > 0 {
				w[j] = rng.Float64()
			}
		}
		st.Weights[id] = w
	}
	s, err := meta.RestoreStacker(st)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

func TestCombineMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range Sizes {
		table := learn.LabelsOf(Labels(rng, n))
		for _, k := range []int{1, 4, 9} {
			s, st := randomStacker(t, rng, table, k)
			for i := 0; i < trials/3; i++ {
				preds := make([]learn.Prediction, k)
				refs := make([]mapPred, k)
				for j := range preds {
					// One prediction in six is empty: an untrained
					// plug-in, which adds zeros.
					if rng.Intn(6) > 0 {
						preds[j] = random(rng, table)
					}
					refs[j] = toMap(preds[j])
				}
				sameBits(t, "Combine", s.Combine(preds), mapCombine(st, refs))
			}
		}
	}
}

func TestConvertMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range Sizes {
		table := learn.LabelsOf(Labels(rng, n))
		for _, mode := range []meta.ConverterMode{meta.Average, meta.Max} {
			for i := 0; i < trials/3; i++ {
				preds := make([]learn.Prediction, rng.Intn(6))
				refs := make([]mapPred, len(preds))
				for j := range preds {
					if rng.Intn(6) > 0 {
						preds[j] = random(rng, table)
					}
					refs[j] = toMap(preds[j])
				}
				got := meta.Convert(mode, table, preds)
				ref := mapConvert(mode, table.Names(), refs)
				if mode == meta.Max && len(ref) < n {
					maxDivergence(t, got, ref)
					continue
				}
				sameBits(t, "Convert", got, ref)
			}
		}
	}
}

// maxDivergence checks the one place the dense converter differs from
// the map reference. Max mode sets a label only when some score beats
// the running maximum, which starts at 0, so the reference leaves out
// every label whose scores are all ≤ 0, and a column with no positive
// score yields the empty map. The dense result keeps those labels at 0,
// and an all-zero result becomes uniform like any other. The labels the
// reference has match bit for bit.
func maxDivergence(t *testing.T, got learn.Prediction, ref mapPred) {
	t.Helper()
	if len(ref) == 0 {
		u := 1 / float64(got.Len())
		for id := 0; id < got.Len(); id++ {
			if s := got.At(id); s != u {
				t.Fatalf("Convert(Max) of a column with no positive score: %s = %g, want uniform %g",
					got.Labels().Name(id), s, u)
			}
		}
		return
	}
	for id := 0; id < got.Len(); id++ {
		s, c := got.At(id), got.Labels().Name(id)
		want, ok := ref[c]
		if !ok {
			want = 0
		}
		if math.Float64bits(s) != math.Float64bits(want) {
			t.Fatalf("Convert(Max): %s = %.17g, reference %.17g (present %v)", c, s, want, ok)
		}
	}
}

func TestSuggestMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range Sizes {
		names := Labels(rng, n)
		table := learn.LabelsOf(names)
		// A random forest over the labels plus three shared ancestors:
		// each label's parent is an earlier label or an ancestor.
		parent := map[string]string{}
		for i, c := range names {
			if i > 0 && rng.Intn(3) == 0 {
				parent[c] = names[rng.Intn(i)]
			} else if rng.Intn(4) > 0 {
				parent[c] = []string{"ROOT-A", "ROOT-B", "ROOT-C"}[rng.Intn(3)]
			}
		}
		h := core.NewLabelHierarchy(parent)
		for i := 0; i < trials; i++ {
			p := random(rng, table)
			ratio := []float64{0, 0.5, core.AmbiguityRatio, 1}[rng.Intn(4)]
			gotAnc, gotOK := h.Suggest(p, ratio)
			wantAnc, wantOK := mapSuggest(h, toMap(p), ratio)
			if gotAnc != wantAnc || gotOK != wantOK {
				t.Fatalf("n=%d: Suggest = %q %v, reference %q %v", n, gotAnc, gotOK, wantAnc, wantOK)
			}
		}
		gotAnc, gotOK := h.Suggest(learn.Prediction{}, 0)
		if wantAnc, wantOK := mapSuggest(h, mapPred{}, 0); gotAnc != wantAnc || gotOK != wantOK {
			t.Errorf("n=%d, empty: Suggest = %q %v, reference %q %v", n, gotAnc, gotOK, wantAnc, wantOK)
		}
	}
}
