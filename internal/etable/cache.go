package etable

import (
	"repro/internal/graphrel"
	"repro/internal/lru"
)

// Cache is a shared execution cache for intermediate matching results:
// filtered base node sets σ_C(R^G) (one-node relations) and reduced
// matches, both as *graphrel.Relation, keyed by canonical signatures —
// the cross-session form of the reuse §9's future-work item 2 asks for.
// It is one lru.Cache of exactly its capacity; concurrent misses on one key share one compute
// (singleflight), and waiters count as hits. Values are immutable and
// shared without copying. A Cache must only be shared by executors over
// the same instance graph; signatures do not encode graph identity.
type Cache struct {
	lru *lru.Cache[string, *graphrel.Relation]
}

// DefaultCacheEntries is the capacity used by NewExecutor's private
// cache; servers size their shared cache explicitly.
const DefaultCacheEntries = 256

// NewCache returns a cache holding at most maxEntries values (minimum
// 1).
func NewCache(maxEntries int) *Cache {
	return &Cache{lru: lru.New[string, *graphrel.Relation](maxEntries)}
}

// GetOrCompute returns the cached value for key, or runs compute to
// produce it. Concurrent callers with the same key share one compute
// call (singleflight); errors are returned to every waiter and are not
// cached. If compute panics, the panic propagates to its caller and the
// waiters get an error.
func (c *Cache) GetOrCompute(key string, compute func() (*graphrel.Relation, error)) (*graphrel.Relation, error) {
	return c.lru.Get(key, compute)
}

// ResidentBytes is the bitset bytes of every cached node set, for the
// server's stats endpoint: a point-in-time snapshot.
func (c *Cache) ResidentBytes() int64 {
	var n int64
	for _, red := range c.lru.Values() {
		n += red.SizeBytes()
	}
	return n
}

// Get returns the cached value for key without computing: the
// derivation walk's lookup for a resident ancestor match (deriveFrom),
// and tests. It loads nothing and counts neither a hit nor a miss; a
// found entry becomes the most recently used.
func (c *Cache) Get(key string) (*graphrel.Relation, bool) { return c.lru.Lookup(key) }

// Len returns the number of cached values.
func (c *Cache) Len() int { return c.lru.Len() }

// Hits returns the number of lookups served from the cache (including
// singleflight waiters).
func (c *Cache) Hits() int64 { return c.lru.Stats().Hits }

// Misses returns the number of lookups that had to compute.
func (c *Cache) Misses() int64 { return c.lru.Stats().Misses }
