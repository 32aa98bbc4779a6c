// Package fixtures is the call-graph substrate's test input: a static
// call (reenterViaCall → lockA), method calls on a concrete receiver
// that resolve into a package outside the program (sync), and a call
// through a func value, which is no edge and marks its caller
// unresolved.
package fixtures

import "sync"

type registry struct {
	a sync.Mutex
	b sync.Mutex
}

func lockA(r *registry) {
	r.a.Lock()
	defer r.a.Unlock()
}

func reenterViaCall(r *registry) {
	r.a.Lock()
	lockA(r)
	r.a.Unlock()
}

func inLiteral(r *registry) {
	r.a.Lock()
	f := func() {
		r.b.Lock()
		r.b.Unlock()
	}
	r.a.Unlock()
	f()
}

var _ = []any{reenterViaCall, inLiteral}
