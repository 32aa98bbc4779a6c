// Package fixtures exercises the normalizedpred analyzer: true
// positives in Fresh, BuiltNoNormalize and Escapes, true negatives in
// the rest.
package fixtures

import "repro/internal/learn"

func Fresh(t *learn.Labels) learn.Prediction {
	return learn.NewPrediction(t) // a raw zero vector crosses the boundary
}

func BuiltNoNormalize(t *learn.Labels) learn.Prediction {
	p := learn.NewPrediction(t)
	for id := range p.Scores() {
		p.Scores()[id] = 1
	}
	return p // built here, never normalized
}

func BuiltNormalized(t *learn.Labels) learn.Prediction {
	p := learn.NewPrediction(t)
	for id := range p.Scores() {
		p.Scores()[id] = 1
	}
	return p.Normalize()
}

func NormalizedEarlier(t *learn.Labels) learn.Prediction {
	p := learn.NewPrediction(t)
	for id := range p.Scores() {
		p.Scores()[id] = 1
	}
	p.Normalize()
	return p
}

func Delegates(t *learn.Labels) learn.Prediction {
	return learn.Uniform(t) // the callee owns the invariant
}

func PassThrough(p learn.Prediction) learn.Prediction {
	return p // not built here; the producer already normalized it
}

func Empty() learn.Prediction {
	return learn.Prediction{} // the empty prediction has nothing to normalize
}

func unexportedFresh(t *learn.Labels) learn.Prediction {
	return learn.NewPrediction(t) // package-internal values are not checked
}

func Suppressed(t *learn.Labels) learn.Prediction {
	//lint:ignore normalizedpred fixture demonstrating a justified suppression
	return learn.NewPrediction(t)
}

// rawScores builds a Prediction and returns it raw. Package-internal
// on its own — but Escapes hands it straight across the boundary, so
// the finding lands on the return below.
func rawScores(t *learn.Labels) learn.Prediction {
	p := learn.NewPrediction(t)
	for id := range p.Scores() {
		p.Scores()[id] = 1
	}
	return p
}

// Escapes returns the helper's raw distribution: the interprocedural
// true positive the intraprocedural pass missed.
func Escapes(t *learn.Labels) learn.Prediction {
	return rawScores(t)
}

// normalizedScores normalizes before returning, so Clean is fine.
func normalizedScores(t *learn.Labels) learn.Prediction {
	p := learn.NewPrediction(t)
	for id := range p.Scores() {
		p.Scores()[id] = 1
	}
	return p.Normalize()
}

func Clean(t *learn.Labels) learn.Prediction {
	return normalizedScores(t)
}

var _ = unexportedFresh
