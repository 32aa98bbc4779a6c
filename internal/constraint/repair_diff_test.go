package constraint_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dtd"
	"repro/internal/learn"
)

// checkRepairMatchesOracle runs the screened repair and the
// full-recompute oracle from the same start and requires the same
// mapping and the same cost bits.
func checkRepairMatchesOracle(t *testing.T, name string, h *constraint.Handler,
	src *constraint.Source, preds map[string]learn.Prediction, start constraint.Assignment) {
	t.Helper()
	got, want := start.Clone(), start.Clone()
	gotCost := h.Repair(src, preds, got)
	wantCost := h.OracleRepair(src, preds, want)
	if !reflect.DeepEqual(got, want) {
		for _, tag := range src.Tags {
			if got[tag] != want[tag] {
				t.Errorf("%s: tag %s repaired to %q, oracle %q", name, tag, got[tag], want[tag])
			}
		}
	}
	if math.Float64bits(gotCost) != math.Float64bits(wantCost) {
		t.Errorf("%s: cost %v (%#x), oracle %v (%#x)", name,
			gotCost, math.Float64bits(gotCost), wantCost, math.Float64bits(wantCost))
	}
}

// perturb reassigns a few tags of m to random labels, mostly from the
// tag's own candidates (the moves repair makes) and sometimes from
// anywhere in labels (which A* never assigns).
func perturb(rng *rand.Rand, m constraint.Assignment, tags []string, cands map[string][]string, labels []string) constraint.Assignment {
	out := m.Clone()
	for n := 1 + rng.Intn(4); n > 0; n-- {
		tag := tags[rng.Intn(len(tags))]
		if cs := cands[tag]; len(cs) > 0 && rng.Intn(4) > 0 {
			out[tag] = cs[rng.Intn(len(cs))]
		} else {
			out[tag] = labels[rng.Intn(len(labels))]
		}
	}
	return out
}

// TestRepairMatchesOracleDomains trains one matcher per domain and, on
// both held-out sources, repairs from the greedy mapping, from Run's
// mapping, and from seeded random reassignments of it, with and
// without a feedback constraint.
func TestRepairMatchesOracleDomains(t *testing.T) {
	for _, d := range datagen.Domains() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			med := d.Mediated()
			specs := d.Sources()
			var train []*core.Source
			for _, spec := range specs[:3] {
				train = append(train, spec.Generate(12, 5))
			}
			cfg := core.DefaultConfig()
			cfg.Workers = 1
			sys, err := core.Train(med, train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			labels := append(append([]string{}, sys.Labels()...), learn.Other)
			for si, spec := range specs[3:] {
				test := spec.Generate(12, 5)
				res, err := sys.Match(context.Background(), test)
				if err != nil {
					t.Fatal(err)
				}
				cols, err := core.CollectColumns(context.Background(), med, test, 0)
				if err != nil {
					t.Fatal(err)
				}
				src := core.BuildConstraintSource(test, cols, 0)
				preds := res.TagPredictions

				h := constraint.NewHandler(med.Constraints...)
				run, err := h.Run(src, preds)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(run.Mapping, res.Mapping) {
					t.Fatalf("source %d: handler mapping differs from the match's", si)
				}
				cands := h.Candidates(src, preds)
				rng := rand.New(rand.NewSource(int64(si + 1)))
				name := fmt.Sprintf("source %d", si)
				checkRepairMatchesOracle(t, name+" greedy", h, src, preds, constraint.GreedyRun(src, preds))
				checkRepairMatchesOracle(t, name+" run", h, src, preds, run.Mapping)
				for r := 0; r < 3; r++ {
					start := perturb(rng, run.Mapping, src.Tags, cands, labels)
					checkRepairMatchesOracle(t, fmt.Sprintf("%s perturbed %d", name, r), h, src, preds, start)
				}

				// Feedback pins the first wrong tag: a global constraint.
				for _, tag := range src.Tags {
					if want := test.LabelOf(tag); run.Mapping[tag] != want {
						fh := constraint.NewHandler(append(append([]constraint.Constraint{}, med.Constraints...),
							constraint.MustMatch(tag, want))...)
						checkRepairMatchesOracle(t, name+" feedback", fh, src, preds, run.Mapping)
						break
					}
				}
			}
		})
	}
}

// TestRepairMatchesOracleRandom draws small random problems mixing
// hard, soft and global constraints and repairs, with both repairs, a
// random complete mapping (often infeasible) and Run's mapping.
func TestRepairMatchesOracleRandom(t *testing.T) {
	schema := dtd.MustParse(`
<!ELEMENT listing (id, beds, baths, agent, price, notes)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT beds (#PCDATA)>
<!ELEMENT baths (#PCDATA)>
<!ELEMENT agent (name, phone)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT notes (#PCDATA)>
`)
	src := &constraint.Source{
		Schema: schema,
		Tags:   schema.Tags(),
		Columns: map[string][]string{
			"id": {"1", "2", "3"}, "beds": {"3", "2", "3"}, "baths": {"1", "2", "1"},
			"name": {"Kate", "Mike", "Kate"}, "phone": {"206", "305", "206"},
			"price": {"100", "250", "300"}, "notes": {"a", "b", "a"},
		},
	}
	labels := []string{"A", "B", "C", "D", "E", learn.Other}
	pick := func(rng *rand.Rand) string { return labels[rng.Intn(len(labels)-1)] }
	infeasible := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cs []constraint.Constraint
		for n := rng.Intn(7); n > 0; n-- {
			switch rng.Intn(10) {
			case 0:
				cs = append(cs, constraint.AtMostOne(pick(rng)))
			case 1:
				cs = append(cs, constraint.ExactlyOne(pick(rng)))
			case 2:
				cs = append(cs, constraint.Near(pick(rng), pick(rng), 0.1+rng.Float64()))
			case 3:
				cs = append(cs, constraint.AtMostSoft(pick(rng), rng.Intn(2), 0.1+rng.Float64()))
			case 4:
				cs = append(cs, constraint.Contiguous(pick(rng), pick(rng)))
			case 5:
				cs = append(cs, constraint.MustMatch(src.Tags[rng.Intn(len(src.Tags))], pick(rng)))
			case 6:
				cs = append(cs, constraint.MustNotMatch(src.Tags[rng.Intn(len(src.Tags))], pick(rng)))
			case 7:
				cs = append(cs, constraint.NestedIn(pick(rng), pick(rng)))
			case 8:
				cs = append(cs, constraint.Key(pick(rng)))
			case 9:
				// A soft constraint with nil Labels is global too.
				tag, label := src.Tags[rng.Intn(len(src.Tags))], pick(rng)
				cs = append(cs, constraint.BinarySoft("avoid "+tag+"="+label, 0.1+rng.Float64(), nil,
					func(_ *constraint.Source, m constraint.Assignment, _ bool) bool { return m[tag] == label }))
			}
		}
		preds := make(map[string]learn.Prediction, len(src.Tags))
		for _, tag := range src.Tags {
			scores := map[string]float64{}
			for _, l := range labels {
				if rng.Intn(3) > 0 {
					scores[l] = rng.Float64()
				}
			}
			preds[tag] = constraint.PredOf(scores)
		}
		h := constraint.NewHandler(cs...)
		h.TopK = 1 + rng.Intn(len(labels))
		h.Alpha = 0.5 + rng.Float64()
		start := constraint.Assignment{}
		for _, tag := range src.Tags {
			start[tag] = labels[rng.Intn(len(labels))]
		}
		if math.IsInf(constraint.Cost(cs, src, start, true), 1) {
			infeasible++
		}
		checkRepairMatchesOracle(t, fmt.Sprintf("seed %d", seed), h, src, preds, start)
		res, err := h.Run(src, preds)
		if err != nil {
			t.Fatal(err)
		}
		checkRepairMatchesOracle(t, fmt.Sprintf("seed %d run", seed), h, src, preds, res.Mapping)
	}
	if infeasible < 30 {
		t.Errorf("only %d of 300 random starts are infeasible; the +Inf path is barely exercised", infeasible)
	}
}
