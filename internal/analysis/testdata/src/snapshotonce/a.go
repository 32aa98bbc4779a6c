// Package snapshotonce exercises the snapshotonce analyzer: code
// reachable from an HTTP handler may load the atomic.Pointer registry
// snapshot at most once per request.
package snapshotonce

import (
	"net/http"
	"sync/atomic"
)

type registry struct {
	models map[string]int
}

type server struct {
	reg atomic.Pointer[registry]
}

// handleBad loads the snapshot itself and then calls a helper that
// loads again: the second load is only visible interprocedurally.
func (s *server) handleBad(w http.ResponseWriter, r *http.Request) {
	reg := s.reg.Load()
	_ = reg.models
	_ = s.lookup("a")
}

func (s *server) lookup(name string) int {
	return s.reg.Load().models[name]
}

// handleGood loads once and passes the snapshot down (true negative).
func (s *server) handleGood(w http.ResponseWriter, r *http.Request) {
	reg := s.reg.Load()
	_ = lookupIn(reg, "a")
	_ = lookupIn(reg, "b")
}

func lookupIn(reg *registry, name string) int {
	return reg.models[name]
}

// handleLoop has a single load site, but inside a loop one iteration
// per registry generation is enough to tear.
func (s *server) handleLoop(w http.ResponseWriter, r *http.Request) {
	for i := 0; i < 3; i++ {
		_ = s.reg.Load()
	}
}

// handleClosures loads twice through function literals handed to a
// runner; closure bodies count toward the enclosing handler.
func (s *server) handleClosures(w http.ResponseWriter, r *http.Request) {
	run(func() { _ = s.reg.Load() })
	run(func() { _ = s.reg.Load() })
}

func run(f func()) { f() }

// notAHandler loads twice but does not have the handler shape, so the
// per-request contract does not apply (true negative).
func (s *server) notAHandler() int {
	a := s.reg.Load()
	b := s.reg.Load()
	return len(a.models) + len(b.models)
}

// handleCompare deliberately reads two generations to report
// hot-swap progress; the double load is the point.
//
//lint:ignore snapshotonce generation comparison needs two independent reads by design
func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	a := s.reg.Load()
	b := s.reg.Load()
	_ = a == b
}

// handleBatch resolves each element through a helper that loads, in a
// literal handed to a fan-out: the fan-out runs the literal once per
// element, so one load site in it tears like a load in a loop.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	names := []string{"a", "b"}
	forEach(len(names), func(i int) { _ = s.lookup(names[i]) })
}

// handleBatchOnce loads before the fan-out and hands the one snapshot
// to every element (true negative).
func (s *server) handleBatchOnce(w http.ResponseWriter, r *http.Request) {
	reg := s.reg.Load()
	names := []string{"a", "b"}
	forEach(len(names), func(i int) { _ = lookupIn(reg, names[i]) })
}

func forEach(n int, f func(i int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}
