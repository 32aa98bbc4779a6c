package core_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dtd"
	"repro/internal/modeltest"
	"repro/internal/xmltree"
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
// per-instance reference, which labels every sub-element itself. Each
// side is rebuilt from its own trained systems, so neither reads
// predictions the other memoized.
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
			// build trains a system on train and rebuilds it from its
			// state around the interim ensemble of a system trained on
			// other. It returns both.
			build := func(workers int) (own, mixed *core.System) {
				own, err := core.Train(d.Mediated(), train, cfg)
				if err != nil {
					t.Fatalf("Train: %v", err)
				}
				donor, err := core.Train(d.Mediated(), other, cfg)
				if err != nil {
					t.Fatalf("Train: %v", err)
				}
				st, ds := own.State(), donor.State()
				st.InterimNames, st.InterimLearners, st.InterimStacker = ds.InterimNames, ds.InterimLearners, ds.InterimStacker
				mixed, err = core.FromState(st, workers)
				if err != nil {
					t.Fatalf("FromState: %v", err)
				}
				return own, mixed
			}
			own, ref := build(1)
			refRes, err := ref.MatchReference(ctx, test)
			if err != nil {
				t.Fatalf("reference Match: %v", err)
			}
			want := modeltest.MatchFingerprint(ref, refRes)
			ownRes, err := own.Match(ctx, test)
			if err != nil {
				t.Fatalf("Match: %v", err)
			}
			if modeltest.MatchFingerprint(own, ownRes) != want {
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

// TestSharedStateDeterministic builds two systems from one trained
// state, the second around a donor's interim ensemble, and then
// matches with the first. Building the second must not change how the
// first labels sub-elements: its match must equal the per-instance
// reference of an independently trained system.
func TestSharedStateDeterministic(t *testing.T) {
	ctx := context.Background()
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
			trained, err := core.Train(d.Mediated(), train, cfg)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			ref, err := core.Train(d.Mediated(), train, cfg)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			donor, err := core.Train(d.Mediated(), other, cfg)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			st := trained.State()
			first, err := core.FromState(st, 2)
			if err != nil {
				t.Fatalf("FromState: %v", err)
			}
			mixed, ds := *st, donor.State()
			mixed.InterimNames, mixed.InterimLearners, mixed.InterimStacker = ds.InterimNames, ds.InterimLearners, ds.InterimStacker
			if _, err := core.FromState(&mixed, 2); err != nil {
				t.Fatalf("FromState: %v", err)
			}
			refRes, err := ref.WithWorkers(1).MatchReference(ctx, test)
			if err != nil {
				t.Fatalf("reference Match: %v", err)
			}
			res, err := first.Match(ctx, test)
			if err != nil {
				t.Fatalf("Match: %v", err)
			}
			if got, want := modeltest.MatchFingerprint(first, res), modeltest.MatchFingerprint(ref, refRes); got != want {
				t.Errorf("first system's match differs from the reference once a second system shares its state\nreference:\n%s\ngot:\n%s",
					want, got)
			}
		})
	}
}

// TestUndeclaredElementsDeterministic matches a source whose listings
// hold an element the source DTD does not declare: under each listing
// root, a leaf that repeats the text of the listing's first leaf, so
// that its interim label is a field's. The XML learner labels it as a
// sub-element of the root, and Match must equal the per-instance
// reference.
func TestUndeclaredElementsDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, d := range datagen.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			specs := d.Sources()
			var train []*core.Source
			for _, spec := range specs[:len(specs)-1] {
				train = append(train, spec.Generate(15, 11))
			}
			test := specs[len(specs)-1].Generate(15, 11)
			const extra = "undeclared-note"
			if test.Schema.Element(extra) != nil {
				t.Fatalf("%s declares %s", test.Name, extra)
			}
			for _, listing := range test.Listings {
				var text string
				listing.Walk(func(n *xmltree.Node, _ []string) {
					if text == "" && n.IsLeaf() {
						text = n.Text
					}
				})
				listing.AddChild(xmltree.New(extra, text))
			}
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
			res, err := sys.Match(ctx, test)
			if err != nil {
				t.Fatalf("Match: %v", err)
			}
			if _, ok := res.TagPredictions[extra]; ok {
				t.Errorf("the undeclared %s got a tag prediction", extra)
			}
			if got, want := modeltest.MatchFingerprint(sys, res), modeltest.MatchFingerprint(ref, refRes); got != want {
				t.Errorf("match differs from per-instance reference\nreference:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// TestDeepNestingQuadraticDeterministic matches one listing of <a>x
// nested d deep against the Real Estate I model, on a fresh system per
// depth, and measures the bytes the match allocates. Every node's
// content and every instance's token bag span its subtree, so the work
// is quadratic in d; labelling each sub-element anew for every
// instance above it would make it cubic. Doubling d must therefore
// multiply the bytes by less than 5 (4 for quadratic, 8 for cubic).
// Bytes, unlike time, do not depend on the host's load.
func TestDeepNestingQuadraticDeterministic(t *testing.T) {
	d := datagen.RealEstateI()
	specs := d.Sources()
	var train []*core.Source
	for _, spec := range specs[:3] {
		train = append(train, spec.Generate(20, 1))
	}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	sys, err := core.Train(d.Mediated(), train, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	st := sys.State()
	schema := dtd.MustParse(`<!ELEMENT a (#PCDATA | a)*>`)
	allocated := func(depth int) uint64 {
		chain := strings.Repeat("<a>x", depth) + strings.Repeat("</a>", depth)
		listings, err := xmltree.ParseAll(strings.NewReader(chain))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.FromState(st, 1)
		if err != nil {
			t.Fatalf("FromState: %v", err)
		}
		src := &core.Source{Name: "deep", Schema: schema, Listings: listings}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := fresh.Match(context.Background(), src); err != nil {
			t.Fatalf("d=%d: Match: %v", depth, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(200), allocated(400)
	ratio := float64(large) / float64(small)
	t.Logf("d=200: %.1f MB, d=400: %.1f MB, ratio %.2f", float64(small)/1e6, float64(large)/1e6, ratio)
	if ratio >= 5 {
		t.Errorf("d=400 allocated %.2f× what d=200 did; want under 5×", ratio)
	}
}
