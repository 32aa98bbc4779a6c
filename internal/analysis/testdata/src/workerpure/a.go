// Package fixtures exercises the workerpure analyzer: worker closures
// writing package-level state (directly or through a helper — the
// interprocedural case), captured variables, and captured struct
// fields are true positives, even when a mutex is held and the target
// carries a `// guarded by` comment; own-result-slot writes and
// closure-local state are negatives.
package fixtures

import (
	"context"
	"sync"

	"repro/internal/parallel"
)

var hits int

var statsMu sync.Mutex

// stats is locked, but a lock does not make a worker's write pure.
var stats = map[string]int{} // guarded by statsMu

type collector struct {
	mu sync.Mutex
	// seen is written under mu. guarded by mu
	seen  []string
	total int
}

// bump mutates package state; any worker that calls it is impure.
func bump() {
	hits++
}

// record mutates the map it is handed; its mutation summary is how the
// laundered-capture case is seen.
func record(m map[string]int, k string) {
	m[k]++
}

// fill appends into the slice its pointer argument addresses.
func fill(dst *[]string, v string) {
	*dst = append(*dst, v)
}

func positives(ctx context.Context, xs []float64, c *collector) {
	// Direct package-level write.
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		hits++
		return nil
	})
	// Captured scalar accumulated across tasks: a data race and an
	// order dependence.
	var sum float64
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		sum += xs[i]
		return nil
	})
	// Captured struct field.
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		c.total++
		return nil
	})
	// Package-level write hidden behind a helper: the true positive a
	// closure-body-only pass missed.
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		bump()
		return nil
	})
	// Captured map handed to a mutating helper: the callee's mutation
	// summary exposes the laundered write.
	counts := map[string]int{}
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		record(counts, "seen")
		return nil
	})
	// Captured slice grown in place through a helper.
	var names []string
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		fill(&names, "x")
		return nil
	})
	_, _, _ = sum, counts, names
}

func negatives(ctx context.Context, xs []float64, c *collector) ([]float64, error) {
	// Map's own positional result collection.
	doubled, err := parallel.Map(ctx, 4, len(xs), func(ctx context.Context, i int) (float64, error) {
		return xs[i] * 2, nil
	})
	if err != nil {
		return nil, err
	}
	// Writing the task's own slot of a captured slice.
	out := make([]float64, len(xs))
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		out[i] = doubled[i] + 1
		return nil
	})
	// Closure-local state is private to the task.
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		acc := 0.0
		for _, x := range xs {
			acc += x
		}
		out[i] = acc
		return nil
	})
	// Slot-indexed element handed to a mutating helper: each task owns
	// its slot, so the laundered write is still private.
	rows := make([][]string, len(xs))
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		fill(&rows[i], "x")
		return nil
	})
	// Closure-local value handed to a mutating helper stays private.
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		local := map[string]int{}
		record(local, "k")
		out[i] = float64(len(local))
		return nil
	})
	_ = rows
	// A held lock and a guarded-by comment exempt nothing: the order
	// of the writes still depends on scheduling.
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		statsMu.Lock()
		stats["tasks"]++
		statsMu.Unlock()
		c.mu.Lock()
		c.seen = append(c.seen, "x")
		c.mu.Unlock()
		return nil
	})
	return out, nil
}

func suppressed(ctx context.Context, xs []float64) {
	_ = parallel.ForEach(ctx, 4, len(xs), func(ctx context.Context, i int) error {
		//lint:ignore workerpure fixture demonstrating a justified suppression
		hits++
		return nil
	})
}

var _ = []any{positives, negatives, suppressed}
