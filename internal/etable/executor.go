package etable

import (
	"context"
	"errors"
	"sort"
	"strings"

	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// Executor executes query patterns with reuse of intermediate results —
// the paper's future-work direction (2) in §9. Filtered base sets
// (which repeat when a user refines one branch of a pattern) and
// reduced matches (which repeat on Sort, Hide, Shift and Revert) are
// cached by signature, and a reduced match also serves as an ancestor
// of the patterns derived from it (deriveFrom). Its one entry is
// PrepareWithOpts; a full render is that presentation's
// WindowOpts(0, -1, opt).
//
// Executor is a stateless per-session view over a Cache, private
// (NewExecutor) or shared by every session of a server
// (NewSharedExecutor), and safe for concurrent use.
type Executor struct {
	g     *tgm.InstanceGraph
	cache *Cache
}

// NewExecutor returns an executor over an instance graph with a private
// cache, sized DefaultCacheEntries.
func NewExecutor(g *tgm.InstanceGraph) *Executor {
	return NewSharedExecutor(g, NewCache(DefaultCacheEntries))
}

// NewSharedExecutor returns an executor backed by an existing cache.
// The cache may be shared by any number of executors, provided they all
// execute over the same instance graph (cache keys do not encode graph
// identity).
func NewSharedExecutor(g *tgm.InstanceGraph, c *Cache) *Executor {
	return &Executor{g: g, cache: c}
}

// Cache returns the executor's backing cache.
func (e *Executor) Cache() *Cache { return e.cache }

// Hits returns the backing cache's hit count. When the cache is shared,
// this counts hits from every session using it.
func (e *Executor) Hits() int64 { return e.cache.Hits() }

// Misses returns the backing cache's miss count.
func (e *Executor) Misses() int64 { return e.cache.Misses() }

// Cache key namespaces: base sets and reduced matches share one cache
// but never collide.
const (
	basePrefix  = "b\x00"
	matchPrefix = "m\x00"
)

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
// is computed at most once per pattern and repeat lookups (the plan
// cache's warm path, relation-cache keys) are a pointer load.
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

// PrepareWithOpts builds the windowed presentation of a pattern. A miss
// computes the reduced match (matchPipeline) and caches it. The
// presentation owns everything its windows read, so it outlives
// the cache entry.
func (e *Executor) PrepareWithOpts(p *Pattern, opt ExecOptions) (*Presentation, error) {
	if err := p.Validate(e.g.Schema()); err != nil {
		return nil, err
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	t, err := treeOf(e.g, p)
	if err != nil {
		return nil, err
	}
	red, err := getOrComputeLive(opt.Ctx, e.cache, matchPrefix+Signature(p), func() (*graphrel.Relation, error) {
		return matchPipeline(e.g, p, t, opt, e.cache)
	})
	if err != nil {
		return nil, err
	}
	return prepareSets(e.g, p, t, red, opt)
}
