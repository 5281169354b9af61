package etable

import (
	"repro/internal/graphrel"
	"repro/internal/lru"
)

// Cache is a shared execution cache for intermediate matching results:
// filtered base relations σ_C(R^G) and fully matched relations, keyed
// by canonical signatures. It is the cross-session generalization of
// the per-session reuse the paper's §9 future-work item 2 asks for —
// the instance graph is immutable after translation (see
// tgm.InstanceGraph.Freeze), so one read-optimized cache can serve every
// session of the application server at once.
//
// It is one lru.Cache of exactly its capacity: a hit moves the entry to
// the front and eviction drops the least recently used relation of the
// whole cache. Misses deduplicate through singleflight: when N sessions
// ask for the same signature concurrently, one computes and the other
// N−1 wait for its result. Waiters count as hits — they got the
// relation without computing it.
//
// Cached *graphrel.Relation values are shared between sessions without
// copying. This is safe because relations are immutable once built and
// because Retain/projection pushdown only ever re-slice columns, never
// write them (the contract is documented in package graphrel). A Cache
// must only be shared by executors over the same instance graph;
// signatures do not encode graph identity.
type Cache struct {
	lru *lru.Cache[string, *graphrel.Relation]
}

// DefaultCacheEntries is the capacity used by NewExecutor's private
// cache; servers size their shared cache explicitly.
const DefaultCacheEntries = 256

// NewCache returns a cache holding at most maxEntries relations
// (minimum 1).
func NewCache(maxEntries int) *Cache {
	return &Cache{lru: lru.New[string, *graphrel.Relation](maxEntries)}
}

// GetOrCompute returns the cached relation for key, or runs compute to
// produce it. Concurrent callers with the same key share one compute
// call (singleflight); errors are returned to every waiter and are not
// cached. If compute panics, the panic propagates to its caller and the
// waiters get an error.
func (c *Cache) GetOrCompute(key string, compute func() (*graphrel.Relation, error)) (*graphrel.Relation, error) {
	return c.lru.Get(key, compute)
}

// ResidentBytes estimates the bytes of all cached relations
// (graphrel.Relation.SizeBytes; column data, not Go object headers) for
// the server's stats endpoint: a point-in-time snapshot.
func (c *Cache) ResidentBytes() int64 {
	var n int64
	for _, rel := range c.lru.Values() {
		n += rel.SizeBytes()
	}
	return n
}

// Get returns the cached relation for key without computing: the
// derivation walk's lookup for a resident ancestor match (deriveFrom),
// and tests. It loads nothing and counts neither a hit nor a miss; a
// found entry becomes the most recently used.
func (c *Cache) Get(key string) (*graphrel.Relation, bool) { return c.lru.Lookup(key) }

// Len returns the number of cached relations.
func (c *Cache) Len() int { return c.lru.Len() }

// Hits returns the number of lookups served from the cache (including
// singleflight waiters).
func (c *Cache) Hits() int64 { return c.lru.Stats().Hits }

// Misses returns the number of lookups that had to compute.
func (c *Cache) Misses() int64 { return c.lru.Stats().Misses }
