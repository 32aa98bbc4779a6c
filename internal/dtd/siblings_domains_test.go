package dtd_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dtd"
)

// TestSiblingIndexDomains checks the sibling-order index against the
// scan reference on every datagen domain's mediated and source schemas.
func TestSiblingIndexDomains(t *testing.T) {
	for _, d := range datagen.Domains() {
		dtd.CheckSiblingIndex(t, d.Mediated().Schema)
		for _, spec := range d.Sources() {
			dtd.CheckSiblingIndex(t, spec.Schema)
		}
	}
}
