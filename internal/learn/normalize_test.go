package learn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// normalizeFloatSort is Normalize as it was before the values sorted
// as bit patterns: the same clamp and sum, with sort.Float64s.
func normalizeFloatSort(scores []float64) []float64 {
	s := append([]float64(nil), scores...)
	var vals []float64
	for id, v := range s {
		if v < 0 {
			s[id] = 0
		} else {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if sum == 0 {
		for id := range s {
			s[id] = 1 / float64(len(s))
		}
		return s
	}
	for id := range s {
		s[id] /= sum
	}
	return s
}

// TestNormalizeMatchesFloatSort requires Normalize to give the
// sort.Float64s sum's result bit for bit on random vectors, whose
// values mix exact zeros, -0.0, subnormals, normal values spanning
// many magnitudes, negatives and +Inf, at lengths on both sides of the
// stack buffer. A vector holding a NaN must normalize to all NaN, as
// before: only the NaN payload may differ.
func TestNormalizeMatchesFloatSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func(withNaN bool) float64 {
		switch r := rng.Intn(20); {
		case r == 0:
			return 0
		case r == 1:
			return math.Copysign(0, -1)
		case r == 2:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
		case r == 3:
			return -rng.Float64()
		case r == 4 && rng.Intn(10) == 0:
			return math.Inf(1)
		case r == 5 && withNaN && rng.Intn(5) == 0:
			return math.NaN()
		default:
			return rng.Float64() * math.Pow(10, float64(rng.Intn(40)-30))
		}
	}
	names := make([]string, normBuf+20)
	for i := range names {
		names[i] = fmt.Sprintf("L%d", i)
	}
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(len(names) + 1)
		withNaN := trial%4 == 3
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = draw(withNaN)
		}
		want := normalizeFloatSort(scores)
		p := NewPrediction(LabelsOf(names[:n]))
		copy(p.Scores(), scores)
		got := p.Normalize().Scores()
		for i := range want {
			if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
				continue
			}
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d, %d values: score %d = %v (%#x), want %v (%#x); input %v",
					trial, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), scores)
			}
		}
	}
}

// TestNormalizeNaNStaysNaN: a NaN score makes the sum NaN, so every
// normalized score is NaN, wherever the NaN sorts.
func TestNormalizeNaNStaysNaN(t *testing.T) {
	for _, nan := range []float64{math.NaN(), math.Float64frombits(0xfff8000000000001)} {
		p := pred([]string{"a", "b", "c"}, 0.5, nan, 0.25)
		for id, s := range p.Normalize().Scores() {
			if !math.IsNaN(s) {
				t.Errorf("NaN %#x: score %d = %v, want NaN", math.Float64bits(nan), id, s)
			}
		}
	}
}
