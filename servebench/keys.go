package main

import (
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/xmltree"
)

// repeatShares returns, for the first n requests of the run's
// sequence, the share of each request's unique instances that an
// earlier request of the run already carried. It parses the distinct
// samples concurrently.
func repeatShares(ctx context.Context, in *inputs, n int) ([]float64, error) {
	first := make(map[int]bool)
	var samples []int
	for i := 0; i < n; i++ {
		if s := in.sampleOf(i); !first[s] {
			first[s] = true
			samples = append(samples, s)
		}
	}
	keys, err := parallel.Map(ctx, 0, len(samples), func(_ context.Context, i int) ([]string, error) {
		src, err := sourceOf(in.bodies[samples[i]])
		if err != nil {
			return nil, err
		}
		return keysOf(src), nil
	})
	if err != nil {
		return nil, err
	}
	bySample := make(map[int][]string, len(samples))
	for i, s := range samples {
		bySample[s] = keys[i]
	}
	seen := make(map[string]bool)
	out := make([]float64, n)
	for i := range out {
		unique := bySample[in.sampleOf(i)]
		hit := 0
		for _, k := range unique {
			if seen[k] {
				hit++
			} else {
				seen[k] = true
			}
		}
		if len(unique) > 0 {
			out[i] = float64(hit) / float64(len(unique))
		}
	}
	return out, nil
}

// keysOf lists a source's distinct instances by identity: tag, root
// path and content for leaves, root path and the serialized subtree
// for interior elements, plus a name-only instance for each source tag
// without data, as core.System.Match builds them. These are the
// features every learner reads, so two instances with one key receive
// one prediction, and a key seen in an earlier request can be served
// from the system's memo.
func keysOf(src *core.Source) []string {
	var unique []string
	seen := make(map[string]bool)
	add := func(key string) {
		if !seen[key] {
			seen[key] = true
			unique = append(unique, key)
		}
	}
	present := make(map[string]bool)
	for _, listing := range src.Listings {
		listing.Walk(func(n *xmltree.Node, path []string) {
			present[n.Tag] = true
			add(instanceKey(n, path))
		})
	}
	for _, tag := range src.Schema.Tags() {
		if !present[tag] {
			add(leafKey(tag, src.Schema.PathFromRoot(tag), ""))
		}
	}
	return unique
}

// instanceKey is one element instance's identity: the features every
// learner reads from it. XML text cannot hold the separator bytes, and
// a serialized subtree identifies an interior element's whole content.
func instanceKey(n *xmltree.Node, path []string) string {
	if n.IsLeaf() {
		return leafKey(n.Tag, path, n.Content())
	}
	return "\x1c" + strings.Join(path, "\x1e") + "\x1f" + n.String()
}

func leafKey(tag string, path []string, content string) string {
	return tag + "\x1f" + strings.Join(path, "\x1e") + "\x1f" + content
}
