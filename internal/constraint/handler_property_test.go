package constraint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/learn"
)

// neverBoth is a user constraint the package cannot see inside: no two
// tags may match a and b at once. It reads the Assignment map.
type neverBoth struct{ a, b string }

func (n neverBoth) Name() string     { return "user: " + n.a + " and " + n.b + " are never both matched" }
func (n neverBoth) Hard() bool       { return true }
func (n neverBoth) Weight() float64  { return 1 }
func (n neverBoth) Labels() []string { return []string{n.a, n.b} }
func (n neverBoth) Violations(_ *Source, m Assignment, _ bool) float64 {
	var hasA, hasB bool
	for _, l := range m {
		hasA, hasB = hasA || l == n.a, hasB || l == n.b
	}
	if hasA && hasB {
		return 1
	}
	return 0
}

// TestHandlerPropertyRandomInstances: on random small problems with
// at-most-one constraints everywhere, a soft BinarySoft closure and a
// user constraint, the handler must (a) return a complete feasible
// mapping, (b) stay within the ε suboptimality bound of weighted A*,
// and (c) find the exact optimum when run with ε = 1.
func TestHandlerPropertyRandomInstances(t *testing.T) {
	labels := []string{"L1", "L2", "L3", learn.Other}
	src := testSource()
	src.Tags = []string{"beds", "baths", "name"}
	cons := []Constraint{AtMostOne("L1"), AtMostOne("L2"), AtMostOne("L3"),
		BinarySoft("beds prefers not L3", 0.7, []string{"L3"},
			func(_ *Source, m Assignment, _ bool) bool { return m["beds"] == "L3" }),
		neverBoth{"L1", "L2"},
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		preds := map[string]learn.Prediction{}
		for _, tag := range src.Tags {
			scores := map[string]float64{}
			for _, l := range labels {
				scores[l] = rng.Float64()
			}
			preds[tag] = predOf(scores)
		}
		h := NewHandler(cons...)
		h.TopK = 0 // all candidates: tiny instance
		res, err := h.Run(src, preds)
		if err != nil || !res.Complete {
			return false
		}
		// Feasible.
		if math.IsInf(Cost(cons, src, res.Mapping, true), 1) {
			return false
		}
		// Optimal: compare against exhaustive search.
		best := math.Inf(1)
		var enumerate func(i int, m Assignment)
		enumerate = func(i int, m Assignment) {
			if i == len(src.Tags) {
				cc := Cost(cons, src, m, true)
				if math.IsInf(cc, 1) {
					return
				}
				if c := ProbCost(preds, m) + cc; c < best {
					best = c
				}
				return
			}
			for _, l := range labels {
				m[src.Tags[i]] = l
				enumerate(i+1, m)
			}
			delete(m, src.Tags[i])
		}
		enumerate(0, Assignment{})
		if res.Cost > h.Epsilon*best+1e-9 {
			return false
		}
		// Exact search must find the optimum.
		exact := NewHandler(cons...)
		exact.TopK = 0
		exact.Epsilon = 1
		eres, err := exact.Run(src, preds)
		if err != nil || !eres.Complete {
			return false
		}
		return eres.Cost <= best+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHandlerNeverAssignsOutsideLabelSet: mappings only use labels that
// appear in the predictions (or OTHER).
func TestHandlerNeverAssignsOutsideLabelSet(t *testing.T) {
	src := testSource()
	preds := map[string]learn.Prediction{}
	for _, tag := range src.Tags {
		preds[tag] = predOf(map[string]float64{"A": 0.6, "B": 0.3, learn.Other: 0.1})
	}
	h := NewHandler()
	res, err := h.Run(src, preds)
	if err != nil {
		t.Fatal(err)
	}
	for tag, l := range res.Mapping {
		if l != "A" && l != "B" && l != learn.Other {
			t.Errorf("tag %s mapped to unexpected label %q", tag, l)
		}
	}
}
