// Package memo is the bounded memo table behind every prediction
// cache: WHIRL's text→prediction cache, the ensemble labeler's label
// memo and the system's combined-prediction memo. The eviction policy
// lives here and nowhere else.
//
// A Table splits its keys over a fixed number of lock domains by hash,
// so concurrent lookups of different keys take different locks. Each
// shard keeps two generations: inserts fill the current one, a full
// one rotates (the old one is dropped, the current one becomes old),
// and an old-generation hit is promoted back so hot entries survive.
// Callers store pure functions of a frozen model, so neither the shard
// a key lands in nor a lost racing insert can change a result.
package memo

import "sync"

// shardCount is the number of lock domains per table.
const shardCount = 8

// perGen bounds each shard's current generation, so a table holds at
// most shardCount × 2 × perGen = 8 192 entries, 4 096 per generation.
const perGen = 512

// Table is a bounded, sharded, two-generation memo keyed by string.
// The zero value is an empty table. A nil *Table misses every lookup
// and drops every insert, so an uninitialized cache degrades to
// recomputation rather than a panic.
type Table[V any] struct {
	shards [shardCount]shard[V]
}

// shard is one lock domain of a table.
type shard[V any] struct {
	mu sync.Mutex
	// cur is the current generation, filled by inserts and promotions.
	cur map[string]V // guarded by mu
	// old is the previous generation, read-only until dropped by the
	// next rotation.
	old map[string]V // guarded by mu
}

// hash is 32-bit FNV-1a, inlined so hashing a key allocates nothing.
func hash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Get returns the value stored for key, if any. An old-generation hit
// is promoted into the current generation under the same critical
// section as the lookup. Every hit of a key returns the one stored
// value, so callers only read it.
func (t *Table[V]) Get(key string) (V, bool) {
	if t == nil {
		var zero V
		return zero, false
	}
	sh := &t.shards[hash(key)%shardCount]
	sh.mu.Lock()
	v, ok := sh.cur[key]
	if !ok {
		if v, ok = sh.old[key]; ok {
			sh.insert(key, v)
		}
	}
	sh.mu.Unlock()
	return v, ok
}

// Put records v for key.
func (t *Table[V]) Put(key string, v V) {
	if t == nil {
		return
	}
	sh := &t.shards[hash(key)%shardCount]
	sh.mu.Lock()
	sh.insert(key, v)
	sh.mu.Unlock()
}

// insert records v in the current generation, first rotating the
// generations when key is new and the current one is full. The caller
// holds sh.mu.
func (sh *shard[V]) insert(key string, v V) {
	if _, exists := sh.cur[key]; !exists && len(sh.cur) >= perGen {
		sh.old, sh.cur = sh.cur, nil
	}
	if sh.cur == nil {
		//lint:ignore hotalloc a generation map is made on a shard's first insert and then at each rotation, once per perGen inserts: amortized to nothing per lookup
		sh.cur = make(map[string]V, 64)
	}
	sh.cur[key] = v
}
