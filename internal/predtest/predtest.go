// Package predtest generates prediction test data: label sets and
// score rows with the awkward cases a score vector can hold (ties,
// zeros, negative scores, an all-zero row). Its tests hold the
// map-based reference the dense prediction code is checked against.
package predtest

import (
	"fmt"
	"math/rand"
)

// Labels returns n distinct label names whose sorted order differs from
// their id order, so a consumer that confuses the two is caught.
func Labels(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i, k := range rng.Perm(n) {
		out[i] = fmt.Sprintf("L%03d-%c", k, 'a'+rng.Intn(26))
	}
	return out
}

// Scores returns a random score row of length n. One row in eight is
// all zero (Normalize's uniform fallback); otherwise each score is
// drawn from a few repeated values (ties), zeros, negatives and
// arbitrary positives.
func Scores(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	if rng.Intn(8) == 0 {
		return s
	}
	pool := []float64{rng.Float64(), rng.Float64() / 3, 1.0 / 3}
	for i := range s {
		switch rng.Intn(6) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = -rng.Float64()
		case 2, 3:
			s[i] = pool[rng.Intn(len(pool))]
		default:
			s[i] = rng.Float64() * 10
		}
	}
	return s
}

// Sizes are the label counts the property tests cover: one label, and
// both sides of 24 (the old stack buffers) and of 128 (Normalize's).
var Sizes = []int{1, 24, 25, 66, 130}
