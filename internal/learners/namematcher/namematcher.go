// Package namematcher implements the name matcher of §3.3: a WHIRL
// nearest-neighbour classifier over tag names expanded with synonyms
// and all tag names on the path from the root. It works well on
// specific, descriptive names (price, house location) and poorly on
// names that share no synonyms, partial names, or vacuous names (item,
// listing).
package namematcher

import (
	"repro/internal/learn"
	"repro/internal/learners/whirl"
)

// extract is the name matcher's text extractor: the tag name expanded
// with its path and synonyms. It is code, not data, so model artifacts
// record only the classifier state and FromState re-attaches it.
func extract(in learn.Instance) string { return in.ExpandedName() }

// New returns an untrained name matcher.
func New() learn.Learner {
	return whirl.New("NameMatcher", extract, whirl.DefaultConfig())
}

// Factory is a learn.Factory for the name matcher.
func Factory() learn.Learner { return New() }

// FromState rebuilds a trained name matcher from serialized WHIRL
// state, supplying the expanded-name extractor.
func FromState(st *whirl.State) (learn.Learner, error) {
	return whirl.Restore(st, extract)
}
