package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/modeltest"
)

// TestBatchedMatchDeterministic is the system-level acceptance test of
// the batched match path: on every domain, Match at workers {1, 4, 8}
// must be bit-identical to the per-instance reference scorer run
// serially. The reference runs on a second, identically trained
// system, so neither side can be served from caches the other warmed.
func TestBatchedMatchDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, d := range datagen.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			specs := d.Sources()
			var train []*core.Source
			for _, spec := range specs[:len(specs)-1] {
				train = append(train, spec.Generate(15, 11))
			}
			test := specs[len(specs)-1].Generate(15, 11)
			cfg := core.DefaultConfig()
			cfg.Workers = 2
			sys, err := core.Train(d.Mediated(), train, cfg)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			ref, err := core.Train(d.Mediated(), train, cfg)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			refRes, err := ref.WithWorkers(1).MatchReference(ctx, test)
			if err != nil {
				t.Fatalf("reference Match: %v", err)
			}
			want := modeltest.MatchFingerprint(sys, refRes)
			if want == "" {
				t.Fatal("empty reference match fingerprint")
			}
			for _, w := range []int{1, 4, 8} {
				res, err := sys.WithWorkers(w).Match(ctx, test)
				if err != nil {
					t.Fatalf("workers=%d: Match: %v", w, err)
				}
				if got := modeltest.MatchFingerprint(sys, res); got != want {
					t.Errorf("workers=%d: batched match differs from per-instance reference\nreference:\n%s\ngot:\n%s",
						w, want, got)
				}
			}
		})
	}
}

// TestUnsharedInterimDeterministic runs the staged match on a system
// whose interim learners and stacker were trained on other data than
// its final learners, so the first pass cannot reuse its own
// predictions for the sub-element labels and must ask the interim
// learners. Match at workers {1, 4} must be bit-identical to the
// per-instance reference, which labels every sub-element through the
// labeler itself. Each side is rebuilt from its own trained systems,
// so neither reads labels or predictions the other memoized.
func TestUnsharedInterimDeterministic(t *testing.T) {
	ctx := context.Background()
	moved := 0
	for _, d := range datagen.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			specs := d.Sources()
			var train, other []*core.Source
			for _, spec := range specs[:len(specs)-1] {
				train = append(train, spec.Generate(15, 11))
			}
			for _, spec := range specs[1 : len(specs)-1] {
				other = append(other, spec.Generate(6, 23))
			}
			test := specs[len(specs)-1].Generate(15, 11)
			cfg := core.DefaultConfig()
			cfg.Workers = 2
			// build trains a system on train whose interim ensemble is
			// that of a system trained on other. It also returns the
			// fingerprint of the system's match with its own interim
			// ensemble, taken before the rebuild re-points the shared XML
			// learner at the donor's.
			build := func(workers int) (string, *core.System) {
				own, err := core.Train(d.Mediated(), train, cfg)
				if err != nil {
					t.Fatalf("Train: %v", err)
				}
				ownRes, err := own.Match(ctx, test)
				if err != nil {
					t.Fatalf("Match: %v", err)
				}
				donor, err := core.Train(d.Mediated(), other, cfg)
				if err != nil {
					t.Fatalf("Train: %v", err)
				}
				st, ds := own.State(), donor.State()
				st.InterimNames, st.InterimLearners, st.InterimStacker = ds.InterimNames, ds.InterimLearners, ds.InterimStacker
				mixed, err := core.FromState(st, workers)
				if err != nil {
					t.Fatalf("FromState: %v", err)
				}
				return modeltest.MatchFingerprint(own, ownRes), mixed
			}
			ownPrint, ref := build(1)
			refRes, err := ref.MatchReference(ctx, test)
			if err != nil {
				t.Fatalf("reference Match: %v", err)
			}
			want := modeltest.MatchFingerprint(ref, refRes)
			if ownPrint != want {
				moved++
			}
			for _, w := range []int{1, 4} {
				_, sys := build(w)
				res, err := sys.Match(ctx, test)
				if err != nil {
					t.Fatalf("workers=%d: Match: %v", w, err)
				}
				if got := modeltest.MatchFingerprint(sys, res); got != want {
					t.Errorf("workers=%d: staged match differs from per-instance reference\nreference:\n%s\ngot:\n%s",
						w, want, got)
				}
			}
		})
	}
	// The check has teeth only if the donor's labels change some scores:
	// otherwise a match that labelled with the wrong ensemble would pass.
	if moved == 0 {
		t.Error("no domain's match changed with the donor's interim ensemble")
	}
}
