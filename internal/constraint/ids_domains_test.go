package constraint_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/learn"
)

// randomConstraints draws n constraints of every built-in kind over
// labels, feedback pinning one of tags.
func randomConstraints(rng *rand.Rand, n int, labels, tags []string) []constraint.Constraint {
	pick := func() string { return labels[rng.Intn(len(labels))] }
	var cs []constraint.Constraint
	for len(cs) < n {
		switch rng.Intn(12) {
		case 0:
			cs = append(cs, constraint.Frequency(pick(), rng.Intn(3), rng.Intn(4)-1))
		case 1:
			cs = append(cs, constraint.NestedIn(pick(), pick()))
		case 2:
			cs = append(cs, constraint.NotNestedIn(pick(), pick()))
		case 3:
			cs = append(cs, constraint.Contiguous(pick(), pick()))
		case 4:
			cs = append(cs, constraint.Exclusive(pick(), pick()))
		case 5:
			cs = append(cs, constraint.Key(pick()))
		case 6:
			cs = append(cs, constraint.FunctionalDep([]string{pick(), pick()}, pick()))
		case 7:
			cs = append(cs, constraint.LeafLabel(pick()))
		case 8:
			cs = append(cs, constraint.NonLeafLabel(pick()))
		case 9:
			cs = append(cs, constraint.MustMatch(tags[rng.Intn(len(tags))], pick()))
		case 10:
			cs = append(cs, constraint.MustNotMatch(tags[rng.Intn(len(tags))], pick()))
		case 11:
			cs = append(cs, constraint.Near(pick(), pick(), 0.1+rng.Float64()))
		}
	}
	return cs
}

// TestIDViolationsMatchMapReference: on every domain's source schemas,
// each built-in constraint evaluated over a run's ids, and through its
// public Violations, equals the map reference bit for bit, with
// complete both false and true. The assignments are random: partial,
// with OTHER, with labels outside the candidate lists, and with tags
// outside src.Tags, then moved tag by tag so the run's cached facts are
// read back.
func TestIDViolationsMatchMapReference(t *testing.T) {
	for _, d := range datagen.Domains() {
		labels := append(append([]string{}, d.Labels()...), learn.Other, "UNSCORED")
		for si, spec := range d.Sources() {
			rng := rand.New(rand.NewSource(int64(7*si + 1)))
			test := spec.Generate(8, 3)
			cols, err := core.CollectColumns(context.Background(), nil, test, 0)
			if err != nil {
				t.Fatal(err)
			}
			src := core.BuildConstraintSource(test, cols, 0)
			all := append(append([]string{}, src.Tags...), "ghost")
			if si%2 == 1 {
				// Map a subset of the schema's tags; the rest become keys
				// outside src.Tags.
				var sub []string
				for _, tag := range src.Tags {
					if rng.Intn(3) > 0 {
						sub = append(sub, tag)
					}
				}
				src.Tags = sub
			}
			cs := append(append([]constraint.Constraint{}, d.Constraints()...),
				randomConstraints(rng, 40, labels, all)...)
			preds := make(map[string]learn.Prediction)
			for _, tag := range src.Tags {
				scores := map[string]float64{}
				for _, l := range labels[:len(labels)-1] {
					if rng.Intn(4) == 0 {
						scores[l] = rng.Float64()
					}
				}
				preds[tag] = constraint.PredOf(scores)
			}
			h := constraint.NewHandler(cs...)

			check := func(what string, n *constraint.Numbered, m constraint.Assignment, adapter bool) {
				t.Helper()
				for _, complete := range []bool{false, true} {
					got := n.Violations(complete)
					for k, c := range cs {
						want := constraint.RefViolations(c, src, m, complete)
						if math.Float64bits(got[k]) != math.Float64bits(want) {
							t.Fatalf("%s %s %s: %s over ids = %v, map reference %v (complete=%v)",
								d.Name, spec.Name, what, c.Name(), got[k], want, complete)
						}
						if !adapter {
							continue
						}
						if v := c.Violations(src, m, complete); math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("%s %s %s: %s Violations = %v, map reference %v (complete=%v)",
								d.Name, spec.Name, what, c.Name(), v, want, complete)
						}
					}
				}
			}
			for trial := 0; trial < 6; trial++ {
				m := constraint.Assignment{}
				for _, tag := range all {
					switch rng.Intn(5) {
					case 0: // unassigned
					case 1:
						m[tag] = learn.Other
					default:
						m[tag] = labels[rng.Intn(len(labels))]
					}
				}
				n := h.Number(src, preds, m)
				check("start", n, m, true)
				for step := 0; step < 8; step++ {
					i, l := rng.Intn(len(n.Tags())), rng.Intn(len(n.Labels())+1)-1
					n.Set(i, l)
					if tag := n.Tags()[i]; l < 0 {
						delete(m, tag)
					} else {
						m[tag] = n.Labels()[l]
					}
					check("moved", n, m, step%4 == 3)
				}
			}
		}
	}
}
