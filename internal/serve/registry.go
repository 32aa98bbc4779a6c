// Package serve hosts trained LSD matchers behind an HTTP/JSON API:
// a copy-on-write model registry that hot-swaps artifacts without
// blocking in-flight requests, and the handler set cmd/lsdserve mounts.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/core"
)

// Model is one loaded matcher: the servable system plus the artifact
// metadata requests are validated against. Immutable once published.
type Model struct {
	// Name is the registry key (the artifact's recorded model name,
	// unless the loader overrode it).
	Name string
	// FormatVersion is the artifact envelope version the model was
	// loaded from; requests pinning a different version are refused.
	FormatVersion uint16
	// Checksum is the artifact's hex SHA-256.
	Checksum string
	// Labels are the mediated-schema labels the model predicts over.
	Labels []string

	sys *core.System
}

// System returns the servable matcher.
func (m *Model) System() *core.System { return m.sys }

// Registry is a named set of models built for serving: reads are a
// single atomic pointer load on a copy-on-write map, so request
// handlers never contend with each other or with a reload, and a swap
// (Set/Drop/LoadFile) publishes a whole new map in one store.
// In-flight requests keep matching against the model they resolved;
// the old version is garbage-collected when the last of them returns.
type Registry struct {
	models atomic.Pointer[map[string]*Model]
	mu     sync.Mutex // serializes writers; readers never take it
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	empty := map[string]*Model{}
	r.models.Store(&empty)
	return r
}

// Snapshot is one registry generation: the name → model table that
// one Set or Drop published. It is read-only.
type Snapshot map[string]*Model

// Snapshot returns the current generation. A request that resolves
// every model it needs from one Snapshot never mixes two generations,
// however many reloads land while it runs.
func (r *Registry) Snapshot() Snapshot { return *r.models.Load() }

// List returns the loaded models sorted by name.
func (r *Registry) List() []*Model {
	cur := *r.models.Load()
	out := make([]*Model, 0, len(cur))
	for _, m := range cur {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len reports how many models are loaded.
func (r *Registry) Len() int { return len(*r.models.Load()) }

// Set publishes a model, replacing any previous model of the same name
// in one atomic swap.
func (r *Registry) Set(m *Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.models.Load()
	next := make(map[string]*Model, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[m.Name] = m
	r.models.Store(&next)
}

// Drop removes a model by name, reporting whether it was present.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.models.Load()
	if _, ok := cur[name]; !ok {
		return false
	}
	next := make(map[string]*Model, len(cur)-1)
	for k, v := range cur {
		if k != name {
			next[k] = v
		}
	}
	r.models.Store(&next)
	return true
}

// ModelFromDecoded builds a servable Model from a decoded artifact.
// workers is the system's default worker budget (per-request budgets
// override it via WithWorkers).
func ModelFromDecoded(d *artifact.Decoded, workers int) (*Model, error) {
	sys, err := d.System(workers)
	if err != nil {
		return nil, err
	}
	name := d.Name
	if name == "" {
		return nil, fmt.Errorf("serve: artifact carries no model name")
	}
	return &Model{
		Name:          name,
		FormatVersion: d.FormatVersion,
		Checksum:      d.Checksum,
		Labels:        append([]string(nil), d.State.Labels.Names()...),
		sys:           sys,
	}, nil
}

// LoadFile reads an artifact from disk and publishes it. The model
// keeps the name recorded in the artifact.
func (r *Registry) LoadFile(path string, workers int) (*Model, error) {
	d, err := artifact.Load(path)
	if err != nil {
		return nil, err
	}
	m, err := ModelFromDecoded(d, workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.Set(m)
	return m, nil
}

// ArtifactExt is the artifact filename extension LoadDir scans for.
const ArtifactExt = ".lsdm"

// LoadDir loads every *.lsdm artifact in dir, returning the models it
// published. A directory with no artifacts is not an error; a file
// that fails to load is.
func (r *Registry) LoadDir(dir string, workers int) ([]*Model, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*Model
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ArtifactExt {
			continue
		}
		m, err := r.LoadFile(filepath.Join(dir, e.Name()), workers)
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
	return out, nil
}
