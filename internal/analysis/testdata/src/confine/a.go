// Package fixtures exercises the confine analyzer. The package is
// neither the worker pool nor a main package, and it is not on the
// mutex allowlist, so every go statement and every mention of
// sync.Mutex or sync.RWMutex is a true positive: a struct field, an
// embedded field, a pointer field, a package variable, a local, a
// composite literal and a dot-imported name. Other sync types,
// including the Locker interface, are negatives.
package fixtures

import (
	"sync"
	. "sync"
)

type cache struct {
	mu   sync.Mutex
	data map[string]int
}

type counter struct {
	sync.RWMutex
	n int
}

type shared struct {
	mu *sync.Mutex
}

var registryMu sync.RWMutex

var dotted Mutex

func locals() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	other := sync.Mutex{}
	other.Lock()
	other.Unlock()
	return 0
}

func spawn(done chan<- struct{}) {
	go func() { done <- struct{}{} }()
	go close(done)
}

// Negatives: a WaitGroup, a Once and a Pool are not mutexes, and
// naming the Locker interface declares no lock.
var (
	wg     sync.WaitGroup
	once   sync.Once
	pool   sync.Pool
	locker sync.Locker
)

func suppressed() {
	//lint:ignore confine fixture demonstrating a justified suppression
	go func() {}()
}

var _ = []any{cache{}, counter{}, shared{}, &registryMu, &dotted, locals, spawn, &wg, &once, &pool, locker, suppressed}
