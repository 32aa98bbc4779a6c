// Package contentmatcher implements the content matcher of §3.3: a
// WHIRL nearest-neighbour classifier over the data content of elements.
// It works well on long textual elements (house descriptions) and on
// elements with distinct descriptive values (colours), and poorly on
// short numeric elements (number of bathrooms).
package contentmatcher

import (
	"repro/internal/learn"
	"repro/internal/learners/whirl"
)

// extract is the content matcher's text extractor: the element's data
// content. It is code, not data, so model artifacts record only the
// classifier state and FromState re-attaches it.
func extract(in learn.Instance) string { return in.Content }

// config is the content matcher's WHIRL configuration. Content
// vectors are long and noisy; a similarity floor keeps the matcher
// from issuing confident predictions off incidental token overlap on
// short values (§3.3 notes it "is not good at short, numeric
// elements") — below the floor it abstains instead.
func config() whirl.Config {
	cfg := whirl.DefaultConfig()
	cfg.MinSimilarity = 0.15
	return cfg
}

// New returns an untrained content matcher.
func New() learn.Learner {
	return whirl.New("ContentMatcher", extract, config())
}

// Factory is a learn.Factory for the content matcher.
func Factory() learn.Learner { return New() }

// FromState rebuilds a trained content matcher from serialized WHIRL
// state, supplying the content extractor.
func FromState(st *whirl.State) (learn.Learner, error) {
	return whirl.Restore(st, extract)
}
