package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/learn"
	"repro/internal/serve"
	"repro/internal/xmltree"
)

// modelName is the registry name every workload serves its model under.
const modelName = "bench"

// trainSampleSeed fixes the training corpus and a ring workload's
// pool: the model and the memoized working set are fixtures shared by
// every seed, and --seed draws only the traffic. A later claim
// re-checked on a new seed therefore meets the same model and a new
// request sequence.
const trainSampleSeed = 1

// workload is one traffic definition. Every request of a workload
// posts a sample of the domain's source 4 with the same listing count,
// so all requests share one schema and one size.
type workload struct {
	name string
	// why records what the workload exercises and why it was chosen;
	// README.md expands on it.
	why string
	// domain builds the Table-3 domain the model is trained on.
	domain func() *datagen.Domain
	// listings is the listing count of every request's sample.
	listings int
	// ring > 0 cycles the timed requests through ring fixed samples.
	// Each draws its listings from one fixed source-4 sample, the
	// pool, which the warm-up posts once, split into warmups requests
	// of the workload's size; so every value the timed phase sends is
	// already memoized. The pool keeps the ring's distinct values
	// within the system's memo capacity while the ring holds many
	// different requests; it does not vary with the seed, because a
	// request's cost depends on the listings it carries, and a pool
	// drawn per seed would give each seed its own cost distribution.
	// ring == 0 draws a fresh sample per request, the warm-up included.
	ring int
	// warmups is the number of requests the set-up sends after the
	// listener starts.
	warmups int
	// freshRate sizes a ring-0 workload's inputs: bodies for freshRate
	// requests per timed second are generated before set-up, about
	// seven times the rate measured when the benchmark was defined. A
	// program fast enough to use them all ends the timed phase early.
	freshRate int
	// traced is the number of requests the traced run replays.
	traced int
}

// workloads lists the benchmark's workloads by name.
var workloads = []*workload{
	{
		name:     "warm",
		why:      "Real Estate I model, 20-listing requests drawn from one source-4 pool the warm-up memoized: every value hits the memo, so parsing, collection and the constraint handler remain",
		domain:   datagen.RealEstateI,
		listings: 20,
		ring:     512,
		warmups:  8,
		traced:   24,
	},
	{
		name:      "wide",
		why:       "Real Estate II model (66 labels), a fresh 42-tag source-4 sample per request: the constraint handler's worst case, whose repair grows with the square of the tag count",
		domain:    datagen.RealEstateII,
		listings:  20,
		warmups:   1,
		freshRate: 15,
		traced:    6,
	},
}

// workloadByName resolves a --workload argument.
func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// inputs are a workload's generated inputs: the training corpus and
// the request bodies the client replays. They are built before set-up,
// and the live-heap baseline is taken once they exist.
type inputs struct {
	mediated *core.Mediated
	train    []*core.Source
	// truth is source 4's schema and true mapping, for accuracy.
	truth *core.Source
	// bodies are the JSON request bodies, held in arena; request i
	// posts bodies[sampleOf(i)].
	bodies  [][]byte
	arena   *arena
	ring    int
	warmups int
	// tags and listings describe every request (all share them).
	tags     int
	listings int
}

// sampleOf maps a request's position in the run's sequence (warm-up
// requests first) to the body it posts.
func (in *inputs) sampleOf(i int) int {
	if in.ring == 0 || i < in.warmups {
		return i
	}
	return in.warmups + (i-in.warmups)%in.ring
}

// poolCoordinate is the learn.DeriveSeed coordinate of a ring
// workload's listing pool; body i of any workload uses coordinate i.
const poolCoordinate = -1

// subset returns the pool's listings at the given indices, in pool
// order.
func subset(pool []*xmltree.Node, idx []int) []*xmltree.Node {
	idx = append([]int(nil), idx...)
	sort.Ints(idx)
	out := make([]*xmltree.Node, len(idx))
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// buildInputs generates the training corpus and the request bodies for
// a run whose timed phase lasts seconds. Sample i of the request
// sequence is drawn with learn.DeriveSeed(seed, i).
func buildInputs(w *workload, seed int64, listings int, seconds float64) (*inputs, error) {
	dom := w.domain()
	specs := dom.Sources()
	in := &inputs{mediated: dom.Mediated(), ring: w.ring, warmups: w.warmups, listings: listings}
	for _, spec := range specs[:3] {
		in.train = append(in.train, spec.Generate(listings, trainSampleSeed))
	}
	target := specs[3]
	in.truth = &core.Source{Name: target.Name, Schema: target.Schema, Mapping: target.Mapping}
	in.tags = target.Schema.NumTags()
	n := w.warmups + w.ring
	if w.ring == 0 {
		n = w.warmups + int(math.Ceil(seconds*float64(w.freshRate))) + w.traced
	}
	dtdText := target.Schema.String()
	var pool []*xmltree.Node
	var order []int
	if w.ring > 0 {
		pool = target.Generate(w.warmups*listings, learn.DeriveSeed(trainSampleSeed, poolCoordinate)).Listings
		order = rand.New(rand.NewSource(learn.DeriveSeed(seed, poolCoordinate))).Perm(len(pool))
	}
	in.bodies = make([][]byte, n)
	var xml strings.Builder
	for i := range in.bodies {
		var listings []*xmltree.Node
		switch {
		case pool == nil:
			listings = target.Generate(in.listings, learn.DeriveSeed(seed, int64(i))).Listings
		case i < w.warmups:
			listings = subset(pool, order[i*in.listings:(i+1)*in.listings])
		default:
			pick := rand.New(rand.NewSource(learn.DeriveSeed(seed, int64(i)))).Perm(len(pool))
			listings = subset(pool, pick[:in.listings])
		}
		xml.Reset()
		for _, l := range listings {
			xml.WriteString(l.String())
		}
		body, err := json.Marshal(serve.MatchRequest{
			Model:           modelName,
			SourceName:      target.Name,
			DTD:             dtdText,
			XML:             xml.String(),
			OmitPredictions: true,
		})
		if err != nil {
			return nil, fmt.Errorf("encoding request %d: %w", i, err)
		}
		in.bodies[i] = body
	}
	size := 0
	for _, b := range in.bodies {
		size += len(b)
	}
	a, err := mapArena(size)
	if err != nil {
		return nil, fmt.Errorf("request bodies: %w", err)
	}
	for i, b := range in.bodies {
		in.bodies[i] = a.alloc(len(b))
		copy(in.bodies[i], b)
	}
	in.arena = a
	return in, nil
}

// release unmaps the request bodies; inputs are unusable afterwards.
func (in *inputs) release() error {
	in.bodies = nil
	return in.arena.free()
}
