// Package hotalloc exercises the hotalloc analyzer: functions
// transitively reachable from a `// lint:hot` root must avoid casual
// allocation — fmt formatting, map allocation, and unhinted
// append-in-loop growth.
package hotalloc

import "fmt"

type scorer struct {
	scratch []float64
	cache   map[string]float64
}

// Predict scores each key. It reuses the caller-owned scratch buffer,
// so its own append is capacity-hinted and clean; the findings live
// in the helpers it reaches.
//
// lint:hot
func (s *scorer) Predict(keys []string) []float64 {
	out := s.scratch[:0]
	for _, k := range keys {
		out = append(out, s.tally(k))
	}
	return out
}

// tally is reachable from the hot root only through Predict, so every
// finding in it is interprocedural.
func (s *scorer) tally(k string) float64 {
	key := fmt.Sprintf("k:%s", k)
	seen := make(map[string]bool)
	seen[key] = true
	w := map[string]float64{"a": 1}
	var parts []string
	for i := 0; i < 3; i++ {
		parts = append(parts, key)
	}
	s.insert(key, w["a"])
	return float64(len(parts)) + float64(len(seen))
}

// insert backs the prediction cache; the map allocation happens once
// on the first miss and is deliberate.
func (s *scorer) insert(k string, v float64) {
	if s.cache == nil {
		//lint:ignore hotalloc cache backing map is allocated once on first miss, then reused
		s.cache = make(map[string]float64, 8)
	}
	s.cache[k] = v
}

// presized appends in a loop into a capacity-hinted destination
// (true negative); reachable from the root.
func presized(n int) []int {
	out := make([]int, 0, 16)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// Warm is hot too, to prove multiple roots merge in diagnostics: it
// reaches tally through its own path.
//
// lint:hot
func (s *scorer) Warm(keys []string) {
	for _, k := range keys {
		_ = s.tally(k)
	}
	_ = presized(len(keys))
}

// grow appends through its pointer argument; its mutation summary
// carries the in-place growth to every call site.
func grow(dst *[]float64, v float64) {
	*dst = append(*dst, v)
}

// push grows the receiver's scratch slice.
func (s *scorer) push(v float64) {
	s.scratch = append(s.scratch, v)
}

// Accumulate is hot and launders loop growth through helpers: the
// unhinted destinations are findings, the pre-sized one is not.
//
// lint:hot
func (s *scorer) Accumulate(xs []float64) []float64 {
	var buf []float64
	for _, x := range xs {
		grow(&buf, x) // unhinted: regrows through the helper
	}
	hinted := make([]float64, 0, len(xs))
	for _, x := range xs {
		grow(&hinted, x) // pre-sized: true negative
	}
	for _, x := range xs {
		s.push(x) // receiver scratch regrows every call
	}
	return append(buf, hinted...)
}

// describe allocates freely but is not reachable from any hot root
// (true negative).
func describe(n int) string {
	return fmt.Sprintf("n=%d", n)
}

var _ = describe(0)

// table is generic like the memo table behind the prediction caches;
// Memo reaches put only through an instantiation of it.
type table[V any] struct{ m map[string]V }

func (t *table[V]) put(k string, v V) { t.m = map[string]V{k: v} }

// lint:hot
func Memo(t *table[int]) { t.put("k", 1) }
