// Package lru is the one least-recently-used cache the server's caches
// share: the execution cache of reduced node sets, the pager pools of
// lazy columns, the session table and every session's presentation and
// sorted-view memos.
//
// A Cache holds at most its capacity of entries, least recently used
// evicted first. Get and Pin load a missing key through a caller-supplied
// function, one load per key however many callers ask at once
// (singleflight); a failed load is not cached, and a load that panics
// fails its waiters with ErrLoadPanicked and leaves the key loadable. A
// pinned entry is exempt from eviction until its release, so pins may
// hold the cache above its capacity until they are released.
//
// Values a cache drops are handed back to whoever caused the drop — Add
// and RemoveFunc return them — so a caller whose values own resources
// (sessions) releases them itself, outside
// any lock it must not hold. Get, Pin and a pin's release drop what they
// evict: use them only for values that need no release.
//
// Every method is safe for concurrent use. The cache's mutex is a leaf
// lock: no caller code runs under it except RemoveFunc's predicate.
package lru

import (
	"errors"
	"sync"
	"time"
)

// ErrLoadPanicked is returned to the waiters of a load that panicked;
// the panic itself propagates on the loading goroutine.
var ErrLoadPanicked = errors.New("lru: load panicked")

// Stats is a snapshot of a cache's size and counters.
type Stats struct {
	// Capacity is the configured bound on entries; pins may hold Len
	// above it until they are released.
	Capacity int
	// Len is the number of entries held, Pinned those with a pin.
	Len, Pinned int
	// Hits counts Get and Pin calls served without loading, singleflight
	// waiters on a successful load included.
	Hits int64
	// Misses counts Get and Pin calls that ran their load: concurrent
	// callers sharing one load count once.
	Misses int64
	// Evictions counts entries dropped to keep within capacity.
	Evictions int64
	// LoadNanos is the wall time spent in loads.
	LoadNanos int64
}

// Cache is a bounded least-recently-used map from K to V. The zero
// value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*entry[K, V]
	// head and tail are the recency list of unpinned entries, most
	// recently used first; a pinned entry is off the list.
	head, tail *entry[K, V]
	flight     map[K]*call[V]

	pinned                             int
	hits, misses, evictions, loadNanos int64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	pins       int
	prev, next *entry[K, V]
}

// call is one in-flight load, shared by every caller of its key.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: max(capacity, 1),
		items:    make(map[K]*entry[K, V]),
		flight:   make(map[K]*call[V]),
	}
}

// Get returns key's value, loading it with load if it is not cached.
// Concurrent Gets and Pins of one key share one load; its error goes to
// every one of them and is not cached.
func (c *Cache[K, V]) Get(key K, load func() (V, error)) (V, error) {
	v, _, err := c.acquire(key, load, false)
	return v, err
}

// Pin is Get plus an exemption from eviction until release is called.
// release must be called once; it may be called from any goroutine.
func (c *Cache[K, V]) Pin(key K, load func() (V, error)) (v V, release func(), err error) {
	v, e, err := c.acquire(key, load, true)
	if err != nil {
		return v, nil, err
	}
	return v, func() { c.unpin(e) }, nil
}

// acquire serves Get and Pin. The hit path takes one lock, one map probe
// and at most one list splice, and allocates nothing: a lazy graph's
// per-row attribute reads hit the pager through it thousands of times
// per request.
func (c *Cache[K, V]) acquire(key K, load func() (V, error), pin bool) (V, *entry[K, V], error) {
	c.mu.Lock()
	for {
		if e, ok := c.items[key]; ok {
			if pin {
				c.pin(e)
			} else {
				c.touch(e)
			}
			c.hits++
			v := e.val
			c.mu.Unlock()
			return v, e, nil
		}
		f, ok := c.flight[key]
		if !ok {
			return c.fill(key, load, pin)
		}
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			var zero V
			return zero, nil, f.err
		}
		c.mu.Lock()
		if !pin {
			c.hits++
			c.mu.Unlock()
			return f.val, nil, nil
		}
		// A pin needs the entry itself: look again, and load again if it
		// was evicted between the load landing and this waiter waking.
	}
}

// fill runs load as the leader of a new flight for key and caches its
// value. Called with c.mu held; returns with it released.
func (c *Cache[K, V]) fill(key K, load func() (V, error), pin bool) (V, *entry[K, V], error) {
	f := &call[V]{done: make(chan struct{})}
	c.flight[key] = f
	c.misses++
	c.mu.Unlock()

	// If load panics, the flight must still be unregistered and its
	// waiters released, or every later caller of key would block on it.
	completed := false
	defer func() {
		if !completed {
			f.err = ErrLoadPanicked
			c.mu.Lock()
			delete(c.flight, key)
			c.mu.Unlock()
			close(f.done)
		}
	}()
	start := time.Now()
	v, err := load()
	completed = true
	elapsed := time.Since(start).Nanoseconds()

	c.mu.Lock()
	c.loadNanos += elapsed
	delete(c.flight, key)
	f.val, f.err = v, err
	var e *entry[K, V]
	if err == nil {
		e, _ = c.insert(key, v)
		if pin {
			c.pin(e)
		}
		c.evict(nil)
	}
	c.mu.Unlock()
	close(f.done)
	return v, e, err
}

// Lookup returns key's value and marks it most recently used. It loads
// nothing and counts neither a hit nor a miss.
func (c *Cache[K, V]) Lookup(key K) (V, bool) {
	c.mu.Lock()
	e, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		var zero V
		return zero, false
	}
	c.touch(e)
	v := e.val
	c.mu.Unlock()
	return v, true
}

// Add stores v under key as the most recently used entry. It returns
// the values the cache no longer holds: key's previous value, if any,
// and what eviction dropped to keep within capacity.
func (c *Cache[K, V]) Add(key K, v V) []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, displaced := c.insert(key, v)
	return c.evict(displaced)
}

// RemoveFunc removes every unpinned entry for which drop returns true
// and returns their values. drop runs under the cache's lock, so it must
// be quick and must not call the cache.
func (c *Cache[K, V]) RemoveFunc(drop func(K, V) bool) []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []V
	for e := c.tail; e != nil; {
		prev := e.prev
		if drop(e.key, e.val) {
			c.unlink(e)
			delete(c.items, e.key)
			out = append(out, e.val)
		}
		e = prev
	}
	return out
}

// Values returns every cached value, pinned ones included, in no
// particular order.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.items))
	for _, e := range c.items {
		out = append(out, e.val)
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a consistent snapshot of the cache's size and counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Capacity:  c.capacity,
		Len:       len(c.items),
		Pinned:    c.pinned,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		LoadNanos: c.loadNanos,
	}
}

// unpin releases one pin of e; the last one returns e to the recency
// list as most recently used and re-enforces the capacity.
func (c *Cache[K, V]) unpin(e *entry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.pins == 0 {
		return
	}
	e.pins--
	if e.pins == 0 {
		c.pinned--
		c.pushFront(e)
		c.evict(nil)
	}
}

// insert makes v key's value and key the most recently used entry,
// returning the entry and the value it replaced, if any. It does not
// evict. Caller holds c.mu.
func (c *Cache[K, V]) insert(key K, v V) (*entry[K, V], []V) {
	if e, ok := c.items[key]; ok {
		old := e.val
		e.val = v
		c.touch(e)
		return e, []V{old}
	}
	e := &entry[K, V]{key: key, val: v}
	c.items[key] = e
	c.pushFront(e)
	return e, nil
}

// evict drops least recently used unpinned entries until the cache is
// within capacity or nothing unpinned is left, appending their values to
// out. Caller holds c.mu.
func (c *Cache[K, V]) evict(out []V) []V {
	for len(c.items) > c.capacity && c.tail != nil {
		e := c.tail
		c.unlink(e)
		delete(c.items, e.key)
		c.evictions++
		out = append(out, e.val)
	}
	return out
}

// pin takes one pin of e, taking it off the recency list on the first.
// Caller holds c.mu.
func (c *Cache[K, V]) pin(e *entry[K, V]) {
	if e.pins == 0 {
		c.unlink(e)
		c.pinned++
	}
	e.pins++
}

// touch marks an unpinned e most recently used. Caller holds c.mu.
func (c *Cache[K, V]) touch(e *entry[K, V]) {
	if e.pins == 0 && c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
