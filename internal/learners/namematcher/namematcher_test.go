package namematcher

import (
	"testing"

	"repro/internal/learn"
)

func ex(tag string, path []string, label string) learn.Example {
	return learn.Example{
		Instance: learn.Instance{TagName: tag, Path: path},
		Label:    label,
	}
}

func TestNameMatcherEndToEnd(t *testing.T) {
	l := New()
	if l.Name() != "NameMatcher" {
		t.Errorf("Name = %q", l.Name())
	}
	labels := []string{"ADDRESS", "AGENT-PHONE", learn.Other}
	err := l.Train(labels, []learn.Example{
		ex("location", []string{"listing", "location"}, "ADDRESS"),
		ex("house-addr", []string{"listing", "house-addr"}, "ADDRESS"),
		ex("phone", []string{"listing", "contact", "phone"}, "AGENT-PHONE"),
		ex("agent-phone", []string{"listing", "agent-phone"}, "AGENT-PHONE"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Matches on the tag name itself.
	if best, _ := l.Predict(learn.Instance{TagName: "work-phone"}).Best(); best != "AGENT-PHONE" {
		t.Errorf("work-phone Best = %q", best)
	}
	// The §3.3 expansion: path tokens count too, so an opaque tag under
	// a telling path still leans the right way.
	withPath := l.Predict(learn.Instance{TagName: "val", Path: []string{"listing", "contact", "phone", "val"}})
	bare := l.Predict(learn.Instance{TagName: "val"})
	if withPath.Score("AGENT-PHONE") <= bare.Score("AGENT-PHONE") {
		t.Errorf("path expansion did not help: %g vs %g",
			withPath.Score("AGENT-PHONE"), bare.Score("AGENT-PHONE"))
	}
}

func TestFactory(t *testing.T) {
	if Factory() == nil {
		t.Fatal("Factory returned nil")
	}
	// Factories must produce independent instances.
	a, b := Factory(), Factory()
	if a == b {
		t.Error("Factory returned shared instance")
	}
}
