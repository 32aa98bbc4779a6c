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
