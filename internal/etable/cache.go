package etable

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/graphrel"
)

// Cache is a shared, sharded execution cache for intermediate matching
// results: filtered base relations σ_C(R^G) and fully matched relations,
// keyed by canonical signatures. It is the cross-session generalization
// of the per-session reuse the paper's §9 future-work item 2 asks for —
// the instance graph is immutable after translation (see
// tgm.InstanceGraph.Freeze), so one read-optimized cache can serve every
// session of the application server at once.
//
// Concurrency design:
//
//   - The key space is split across cacheShards shards by FNV-1a hash;
//     each shard holds its own mutex, so sessions touching different
//     signatures never contend on one lock.
//   - Each shard is a true LRU: a hit moves the entry to the front of an
//     intrusive doubly-linked list and eviction pops the tail, both O(1)
//     (the previous per-Executor cache was FIFO with an O(n) slice shift
//     per insert).
//   - Misses deduplicate through per-shard singleflight: when N sessions
//     ask for the same signature concurrently, one computes and the
//     other N−1 wait for its result. Waiters count as hits — they got
//     the relation without computing it.
//   - Hit/miss counters are atomics so the ablation benchmark can read
//     them under concurrent load without taking any shard lock.
//
// Cached *graphrel.Relation values are shared between sessions without
// copying. This is safe because relations are immutable once built and
// because Retain/projection pushdown only ever re-slice columns, never
// write them (the contract is documented in package graphrel). A Cache
// must only be shared by executors over the same instance graph;
// signatures do not encode graph identity.
type Cache struct {
	shards       [cacheShards]cacheShard
	hits, misses atomic.Int64
}

// cacheShards is the number of lock shards. 16 keeps contention low at
// typical GOMAXPROCS while staying cheap for small caches.
const cacheShards = 16

// DefaultCacheEntries is the capacity used by NewExecutor's private
// cache; servers size their shared cache explicitly.
const DefaultCacheEntries = 256

type cacheShard struct {
	mu     sync.Mutex
	max    int
	items  map[string]*cacheItem
	head   *cacheItem // most recently used
	tail   *cacheItem // least recently used
	flight map[string]*flightCall
}

type cacheItem struct {
	key        string
	rel        *graphrel.Relation
	prev, next *cacheItem
}

// flightCall is one in-flight computation other callers can wait on.
type flightCall struct {
	wg  sync.WaitGroup
	rel *graphrel.Relation
	err error
}

// NewCache returns a cache holding at most maxEntries relations in
// total (rounded up to at least one per shard).
func NewCache(maxEntries int) *Cache {
	perShard := maxEntries / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].max = perShard
		c.shards[i].items = make(map[string]*cacheItem)
		c.shards[i].flight = make(map[string]*flightCall)
	}
	return c
}

// shardFor picks the shard for a key by FNV-1a.
func (c *Cache) shardFor(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// GetOrCompute returns the cached relation for key, or runs compute to
// produce it. Concurrent callers with the same key share one compute
// call (singleflight); errors are returned to every waiter and are not
// cached.
func (c *Cache) GetOrCompute(key string, compute func() (*graphrel.Relation, error)) (*graphrel.Relation, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if it, ok := s.items[key]; ok {
		s.moveToFront(it)
		rel := it.rel // read under the lock; it.rel may be refreshed by a later insert
		s.mu.Unlock()
		c.hits.Add(1)
		return rel, nil
	}
	if call, ok := s.flight[key]; ok {
		s.mu.Unlock()
		call.wg.Wait()
		if call.err == nil {
			c.hits.Add(1)
		}
		return call.rel, call.err
	}
	call := &flightCall{}
	call.wg.Add(1)
	s.flight[key] = call
	s.mu.Unlock()
	c.misses.Add(1)

	// The flight entry must be unregistered and waiters released even if
	// compute panics; otherwise every future request for this key would
	// block forever on a stale flight. The panic itself propagates to
	// this caller; waiters get errComputePanicked.
	completed := false
	defer func() {
		if !completed {
			call.err = errComputePanicked
		}
		s.mu.Lock()
		delete(s.flight, key)
		if completed && call.err == nil {
			s.insert(key, call.rel)
		}
		s.mu.Unlock()
		call.wg.Done()
	}()
	rel, err := compute()
	call.rel, call.err = rel, err
	completed = true
	return rel, err
}

// errComputePanicked is handed to singleflight waiters whose leader
// panicked; the panic itself propagates on the leader's goroutine.
var errComputePanicked = errors.New("etable: cache compute panicked")

// ResidentBytes estimates the bytes of all cached relations
// (graphrel.Relation.SizeBytes; column data, not Go object headers) for
// the server's stats endpoint. It takes each shard lock briefly; the
// result is a point-in-time snapshot, not a linearizable total.
func (c *Cache) ResidentBytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for it := s.head; it != nil; it = it.next {
			n += it.rel.SizeBytes()
		}
		s.mu.Unlock()
	}
	return n
}

// Get returns the cached relation for key without computing, for tests
// and introspection.
func (c *Cache) Get(key string) (*graphrel.Relation, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[key]
	if ok {
		s.moveToFront(it)
	}
	if !ok {
		return nil, false
	}
	return it.rel, true
}

// Len returns the number of cached relations across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Hits returns the number of lookups served from the cache (including
// singleflight waiters).
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of lookups that had to compute.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// insert adds key at the front, evicting the least recently used entry
// if the shard is full. Caller holds s.mu.
func (s *cacheShard) insert(key string, rel *graphrel.Relation) {
	if it, ok := s.items[key]; ok {
		// A concurrent computation may have landed first; keep it fresh.
		it.rel = rel
		s.moveToFront(it)
		return
	}
	it := &cacheItem{key: key, rel: rel}
	s.items[key] = it
	s.pushFront(it)
	if len(s.items) > s.max {
		lru := s.tail
		s.unlink(lru)
		delete(s.items, lru.key)
	}
}

// moveToFront marks an entry most recently used. Caller holds s.mu.
func (s *cacheShard) moveToFront(it *cacheItem) {
	if s.head == it {
		return
	}
	s.unlink(it)
	s.pushFront(it)
}

func (s *cacheShard) pushFront(it *cacheItem) {
	it.prev = nil
	it.next = s.head
	if s.head != nil {
		s.head.prev = it
	}
	s.head = it
	if s.tail == nil {
		s.tail = it
	}
}

func (s *cacheShard) unlink(it *cacheItem) {
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		s.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else {
		s.tail = it.prev
	}
	it.prev, it.next = nil, nil
}

// keys returns the shard's keys from most to least recently used, for
// tests. Caller need not hold s.mu.
func (s *cacheShard) keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for it := s.head; it != nil; it = it.next {
		out = append(out, it.key)
	}
	return out
}
