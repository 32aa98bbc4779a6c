package datagen

import (
	"context"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/learn"
)

// TestTable3MediatedShapes checks the mediated-schema columns of
// Table 3 for every domain.
func TestTable3MediatedShapes(t *testing.T) {
	want := map[string]struct{ tags, nonLeaf, depth int }{
		"Real Estate I":    {20, 4, 3},
		"Time Schedule":    {23, 6, 4},
		"Faculty Listings": {14, 4, 3},
		"Real Estate II":   {66, 13, 4},
	}
	for _, d := range Domains() {
		w, ok := want[d.Name]
		if !ok {
			t.Fatalf("unexpected domain %q", d.Name)
		}
		s := d.MediatedSchema()
		if got := s.NumTags(); got != w.tags {
			t.Errorf("%s: mediated tags = %d, want %d", d.Name, got, w.tags)
		}
		if got := len(s.NonLeafTags()); got != w.nonLeaf {
			t.Errorf("%s: non-leaf tags = %d, want %d", d.Name, got, w.nonLeaf)
		}
		if got := s.Depth(); got != w.depth {
			t.Errorf("%s: depth = %d, want %d", d.Name, got, w.depth)
		}
	}
}

// TestTable3SourceShapes checks the source columns of Table 3: tag
// counts, listings, matchable percentage.
func TestTable3SourceShapes(t *testing.T) {
	want := map[string]struct {
		tagsLo, tagsHi int
		listLo, listHi int
		matchableLo    float64
	}{
		"Real Estate I":    {16, 24, 502, 3002, 80},
		"Time Schedule":    {14, 24, 704, 3925, 93},
		"Faculty Listings": {10, 15, 32, 73, 100},
		"Real Estate II":   {30, 55, 502, 3002, 100},
	}
	for _, d := range Domains() {
		w := want[d.Name]
		sources := d.Sources()
		if len(sources) != NumSources {
			t.Fatalf("%s: %d sources, want %d", d.Name, len(sources), NumSources)
		}
		for _, s := range sources {
			n := s.Schema.NumTags()
			if n < w.tagsLo || n > w.tagsHi {
				t.Errorf("%s/%s: %d tags, want in [%d, %d]", d.Name, s.Name, n, w.tagsLo, w.tagsHi)
			}
			if s.NominalListings < w.listLo || s.NominalListings > w.listHi {
				t.Errorf("%s/%s: nominal listings %d outside [%d, %d]",
					d.Name, s.Name, s.NominalListings, w.listLo, w.listHi)
			}
			if p := s.MatchablePercent(); p < w.matchableLo || p > 100 {
				t.Errorf("%s/%s: matchable %.1f%%, want >= %.0f%%", d.Name, s.Name, p, w.matchableLo)
			}
		}
	}
}

// TestSourcesDeterministic: synthesizing twice gives identical schemas
// and data.
func TestSourcesDeterministic(t *testing.T) {
	a := RealEstateI().Sources()
	b := RealEstateI().Sources()
	for i := range a {
		if a[i].Schema.String() != b[i].Schema.String() {
			t.Errorf("source %d schema not deterministic", i)
		}
		la := a[i].Generate(3, 7).Listings
		lb := b[i].Generate(3, 7).Listings
		for j := range la {
			if la[j].String() != lb[j].String() {
				t.Errorf("source %d listing %d not deterministic", i, j)
			}
		}
	}
}

// TestListingsValidate: every generated listing conforms to its source
// DTD.
func TestListingsValidate(t *testing.T) {
	for _, d := range Domains() {
		for _, spec := range d.Sources() {
			src := spec.Generate(25, 3)
			for i, l := range src.Listings {
				if err := spec.Schema.Validate(l); err != nil {
					t.Errorf("%s listing %d invalid: %v", spec.Name, i, err)
					break
				}
			}
		}
	}
}

// TestTrueMappingSatisfiesHardConstraints: the ground-truth mapping of
// every source must violate no hard domain constraint — otherwise the
// constraint handler would be steered away from the right answer.
func TestTrueMappingSatisfiesHardConstraints(t *testing.T) {
	for _, d := range Domains() {
		cs := d.Constraints()
		for _, spec := range d.Sources() {
			src := spec.Generate(40, 5)
			cols, err := core.CollectColumns(context.Background(), nil, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			csrc := core.BuildConstraintSource(src, cols, 0)
			m := constraint.Assignment{}
			for _, tag := range src.Schema.Tags() {
				m[tag] = src.LabelOf(tag)
			}
			for _, c := range cs {
				if v := c.Violations(csrc, m, true); c.Hard() && v > 0 {
					t.Errorf("%s: true mapping violates hard constraint %s (degree %g)", spec.Name, c.Name(), v)
				}
			}
		}
	}
}

// TestMappingLabelsAreValid: every ground-truth label is a mediated tag
// or OTHER.
func TestMappingLabelsAreValid(t *testing.T) {
	for _, d := range Domains() {
		valid := make(map[string]bool)
		for _, l := range d.Labels() {
			valid[l] = true
		}
		for _, spec := range d.Sources() {
			for tag, label := range spec.Mapping {
				if !valid[label] {
					t.Errorf("%s: tag %q mapped to unknown label %q", spec.Name, tag, label)
				}
			}
			// Every schema tag has a mapping entry or defaults to OTHER.
			for _, tag := range spec.Schema.Tags() {
				if _, ok := spec.Mapping[tag]; !ok {
					t.Errorf("%s: tag %q missing from mapping", spec.Name, tag)
				}
			}
		}
	}
}

// TestNoDuplicateLabelsWithinSource: a source maps at most one tag to
// each non-OTHER label (the 1-1 restriction).
func TestNoDuplicateLabelsWithinSource(t *testing.T) {
	for _, d := range Domains() {
		for _, spec := range d.Sources() {
			seen := make(map[string]string)
			for tag, label := range spec.Mapping {
				if label == learn.Other {
					continue
				}
				if prev, dup := seen[label]; dup {
					t.Errorf("%s: label %s mapped from both %q and %q",
						spec.Name, label, prev, tag)
				}
				seen[label] = tag
			}
		}
	}
}

// TestSourceNameVariety: across the five sources of a domain, at least
// some concepts get different tag names (the cross-source variation the
// learners must generalize over).
func TestSourceNameVariety(t *testing.T) {
	d := RealEstateI()
	sources := d.Sources()
	priceNames := make(map[string]bool)
	for _, s := range sources {
		for tag, label := range s.Mapping {
			if label == "PRICE" {
				priceNames[tag] = true
			}
		}
	}
	if len(priceNames) < 3 {
		t.Errorf("PRICE tag names across sources = %v, want variety", priceNames)
	}
}

// TestKeyColumnUnique: the MLS-ID column really is a key.
func TestKeyColumnUnique(t *testing.T) {
	spec := RealEstateI().Sources()[0]
	src := spec.Generate(50, 1)
	var idTag string
	for tag, label := range spec.Mapping {
		if label == "MLS-ID" {
			idTag = tag
		}
	}
	if idTag == "" {
		t.Fatal("no MLS-ID tag in source 0")
	}
	seen := make(map[string]bool)
	for _, l := range src.Listings {
		for _, n := range l.FindAll(idTag) {
			if seen[n.Text] {
				t.Fatalf("duplicate MLS id %q", n.Text)
			}
			seen[n.Text] = true
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("Real Estate I") == nil {
		t.Error("ByName failed for Real Estate I")
	}
	if ByName("nope") != nil {
		t.Error("ByName returned a domain for an unknown name")
	}
}

// TestGenerateDifferentSamples: different sample seeds give different
// data (the three experiment repetitions draw fresh samples).
func TestGenerateDifferentSamples(t *testing.T) {
	spec := RealEstateI().Sources()[1]
	a := spec.Generate(5, 1).Listings
	b := spec.Generate(5, 2).Listings
	same := true
	for i := range a {
		if a[i].String() != b[i].String() {
			same = false
		}
	}
	if same {
		t.Error("different sample seeds produced identical data")
	}
}
