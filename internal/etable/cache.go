package etable

import (
	"context"
	"errors"
	"sort"
	"strings"

	"repro/internal/graphrel"
	"repro/internal/lru"
	"repro/internal/tgm"
)

// Cache is a shared execution cache for intermediate matching results:
// filtered base node sets σ_C(R^G) (one-node relations) and reduced
// matches, both as *graphrel.Relation, keyed by canonical signatures —
// the cross-session form of the reuse §9's future-work item 2 asks for.
// It is one lru.Cache of exactly its capacity; concurrent misses on one key share one compute
// (singleflight), and waiters count as hits. Values are immutable and
// shared without copying. A Cache must only be shared by sessions over
// the same instance graph; signatures do not encode graph identity.
// Prepare is its one served entry.
type Cache struct {
	lru *lru.Cache[string, *graphrel.Relation]
}

// DefaultCacheEntries is the capacity of every cache that nothing
// sizes otherwise: a session's private cache, each registry dataset's
// and the server's -cache flag.
const DefaultCacheEntries = 1024

// NewCache returns a cache holding at most maxEntries values (minimum
// 1).
func NewCache(maxEntries int) *Cache {
	return &Cache{lru: lru.New[string, *graphrel.Relation](maxEntries)}
}

// Cache key namespaces: base sets and reduced matches share one cache
// but never collide.
const (
	basePrefix  = "b\x00"
	matchPrefix = "m\x00"
)

// Prepare builds the windowed presentation of a pattern over g, with
// reuse of intermediate results — the paper's future-work direction
// (2) in §9. A miss computes the reduced match (matchPipeline) and
// caches it under the pattern's signature; its filtered base sets
// (which repeat when a user refines one branch of a pattern) are cached
// too, and a resident match also serves as an ancestor of the patterns
// derived from it (deriveFrom). A full render is the presentation's
// Window(0, -1). ctx cancels the match between morsels and semi-join
// steps; nil never cancels. The presentation owns everything its
// windows read, so it outlives the cache entry.
func (c *Cache) Prepare(ctx context.Context, g *tgm.InstanceGraph, p *Pattern) (*Presentation, error) {
	if err := p.Validate(g.Schema()); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	t, err := treeOf(g, p)
	if err != nil {
		return nil, err
	}
	red, err := getOrComputeLive(ctx, c, matchPrefix+Signature(p), func() (*graphrel.Relation, error) {
		return matchPipeline(ctx, g, p, t, c)
	})
	if err != nil {
		return nil, err
	}
	return prepareSets(ctx, g, p, t, red)
}

// getOrComputeLive wraps Cache.GetOrCompute with the one retry rule
// every lookup shares: a cancellation that did NOT originate from ctx
// (a singleflight leader's client disconnected mid-compute, this
// caller's did not) is retried — the error is never cached, and with
// the canceled leader gone the caller computes the value itself.
func getOrComputeLive(ctx context.Context, c *Cache, key string, compute func() (*graphrel.Relation, error)) (*graphrel.Relation, error) {
	for {
		red, err := c.GetOrCompute(key, compute)
		canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if !canceled || (ctx != nil && ctx.Err() != nil) {
			return red, err
		}
	}
}

// nodeSignature canonicalizes one pattern node's match-relevant state.
func nodeSignature(n *PatternNode) string {
	cond := ""
	if n.Cond != nil {
		cond = n.Cond.String()
	}
	return n.Key + "\x1d" + n.Type + "\x1d" + cond
}

// Signature returns a canonical string identifying the pattern's match
// semantics: the node set (with conditions) and edge set, order-
// insensitively. Patterns with equal signatures match the same tuples up
// to attribute order; the primary type is excluded because it only
// affects the transformation step. The result is memoized on the
// pattern — operators return immutable patterns, so the canonical form
// is computed at most once per pattern and repeat cache-key lookups
// are a pointer load.
func Signature(p *Pattern) string {
	if s := p.sig.Load(); s != nil {
		return *s
	}
	s := computeSignature(p)
	p.sig.Store(&s)
	return s
}

func computeSignature(p *Pattern) string {
	nodes := make([]string, len(p.Nodes))
	for i := range p.Nodes {
		nodes[i] = nodeSignature(&p.Nodes[i])
	}
	sort.Strings(nodes)
	edges := make([]string, len(p.Edges))
	for i, e := range p.Edges {
		edges[i] = e.From + "\x1d" + e.EdgeType + "\x1d" + e.To
	}
	sort.Strings(edges)
	return strings.Join(nodes, "\x1e") + "\x1f" + strings.Join(edges, "\x1e")
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
