package memo

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// sizes counts the entries of each generation across all shards.
func (t *Table[V]) sizes() (cur, old int) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		cur += len(sh.cur)
		old += len(sh.old)
		sh.mu.Unlock()
	}
	return cur, old
}

// TestGenerationsKeepHotEntries floods a table with more distinct keys
// than it holds while re-reading one hot key: the table stays within
// its bound, and promotion keeps the hot entry resident across every
// rotation instead of letting it be dropped wholesale.
func TestGenerationsKeepHotEntries(t *testing.T) {
	var tab Table[int]
	tab.Put("hot", 42)
	const capacity = shardCount * 2 * perGen
	for i := 0; i <= 2*capacity; i++ {
		if i%perGen == 0 {
			if v, ok := tab.Get("hot"); !ok || v != 42 {
				t.Fatalf("after %d inserts: hot = %d, %v; want 42, true", i, v, ok)
			}
		}
		tab.Put(fmt.Sprintf("filler-%d", i), i)
	}
	if cur, old := tab.sizes(); cur > capacity/2 || cur+old > capacity {
		t.Errorf("table exceeded its bound: cur=%d old=%d", cur, old)
	}
}

// TestCapacity pins a table at 8 192 entries, 4 096 per generation.
// servebench's warm workload sizes its request pool to fit one
// generation of the combined memo, so that every value its timed phase
// sends is a hit; a different capacity changes what warm measures.
func TestCapacity(t *testing.T) {
	if got := shardCount * 2 * perGen; got != 8192 {
		t.Fatalf("capacity = %d entries, want 8192", got)
	}
	var tab Table[int]
	for i := 0; i < 40000; i++ {
		tab.Put(strconv.Itoa(i), i)
	}
	// Every shard has rotated many times, so each old generation is a
	// full one: exactly perGen entries.
	if cur, old := tab.sizes(); old != 4096 || cur < shardCount || cur > 4096 {
		t.Errorf("generations hold cur=%d, old=%d entries; want 8 to 4096 and 4096", cur, old)
	}
}

// TestConcurrentHammer drives concurrent hits, misses and generation
// rotations through one table (run it under -race). The key space is
// three times the capacity, so shards rotate throughout, and half the
// lookups go to a small hot set, so hits and promotions mix with the
// misses. Every value is a pure function of its key, as in every cache
// the table backs: a hit must return exactly that value.
func TestConcurrentHammer(t *testing.T) {
	const keys = 3 * shardCount * 2 * perGen
	var tab Table[string]
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 6000; iter++ {
				k := rng.Intn(keys)
				if iter%2 == 0 {
					k = rng.Intn(64)
				}
				key, want := strconv.Itoa(k), "v"+strconv.Itoa(k)
				v, ok := tab.Get(key)
				if !ok {
					tab.Put(key, want)
					continue
				}
				hits.Add(1)
				if v != want {
					t.Errorf("key %s: got %q, want %q", key, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, old := tab.sizes(); hits.Load() == 0 || old == 0 {
		t.Errorf("hammer exercised too little: %d hits, %d old-generation entries", hits.Load(), old)
	}
}

// TestNilTable checks that a nil table misses every lookup and drops
// every insert instead of panicking.
func TestNilTable(t *testing.T) {
	var tab *Table[int]
	tab.Put("k", 1)
	if v, ok := tab.Get("k"); ok || v != 0 {
		t.Errorf("nil table Get = %d, %v; want 0, false", v, ok)
	}
}
