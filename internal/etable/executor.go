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
// the paper's future-work direction (2) in §9 ("accelerating the
// execution speed of updated queries (e.g., by reusing intermediate
// results)"). Two levels are cached, keyed by canonical signatures:
//
//   - filtered base relations σ_C(R^G) per (node type, condition), which
//     repeat whenever a user refines one branch of a pattern while the
//     others stay fixed;
//   - fully matched relations per pattern, which repeat on Sort, Hide,
//     Shift, and history Revert — operations that change presentation or
//     primary type but not the match.
//
// The instance graph is immutable after translation, so cached relations
// never go stale. Executor itself is a stateless per-session view: all
// cached state lives in a Cache, which may be private to this executor
// (NewExecutor) or shared across every session of a server
// (NewSharedExecutor). Either way the executor is safe for concurrent
// use — the cache carries its own sharded locking and singleflight
// deduplication, so N sessions executing the same pattern signature
// compute it once and share the resulting relation.
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

// Cache key namespaces: base relations and matched relations share one
// cache but never collide.
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

// foreignCancellation classifies a cache-lookup error for a caller
// whose own context is ctx: true means err is a cancellation that did
// NOT originate from ctx (a singleflight leader's client disconnected
// mid-compute, this caller's did not) and the lookup should retry —
// the error is never cached, and with the canceled leader gone the
// caller computes the value itself on the next attempt. The match and
// the prepare lookups share this single classification, so the retry
// rules cannot drift apart.
func foreignCancellation(ctx context.Context, err error) bool {
	if err == nil || !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return false
	}
	return ctx == nil || ctx.Err() == nil
}

// getOrComputeLive wraps Cache.GetOrCompute with the
// foreign-cancellation retry (see foreignCancellation).
func getOrComputeLive(ctx context.Context, c *Cache, key string, compute func() (*graphrel.Relation, error)) (*graphrel.Relation, error) {
	for {
		rel, err := c.GetOrCompute(key, compute)
		if !foreignCancellation(ctx, err) {
			return rel, err
		}
	}
}

// Match is the caching counterpart of the package-level Match (serial,
// uncancellable). See MatchWithOpts.
func (e *Executor) Match(p *Pattern) (*graphrel.Relation, error) {
	return e.MatchWithOpts(p, ExecOptions{})
}

// MatchWithOpts is the caching counterpart of the package-level
// MatchOpts: the same engine, with the matched relation served from the
// per-signature cache and the base relations from the per-(type,
// condition) cache. Planning and execution happen inside the compute
// path only — cache hits, the common case, pay nothing. Nested
// GetOrCompute calls are safe: the cache holds no locks while
// computing.
//
// Options and the cache compose: a signature is computed once no matter
// which budget any concurrent requester would have run it under,
// because the drained relation does not depend on the budget.
// Cancellation composes too: a singleflight leader canceled mid-compute
// hands its waiters the cancellation error, but waiters whose own
// context is live retry and recompute instead of surfacing another
// request's cancellation (getOrComputeLive).
func (e *Executor) MatchWithOpts(p *Pattern, opt ExecOptions) (*graphrel.Relation, error) {
	// Fail abandoned requests before they can become singleflight
	// leaders whose cancellation would fail innocent waiters.
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	return getOrComputeLive(opt.Ctx, e.cache, matchPrefix+Signature(p), func() (*graphrel.Relation, error) {
		return matchRelation(e.g, p, opt, e.cache)
	})
}

// errSpilled signals, inside PrepareWithOpts' compute closure, that the
// streamed prepare overflowed to disk: there is no heap relation to
// cache, so the closure fails the cache fill on purpose (errors are
// never cached) and the leader hands the spilled presentation out of
// band. Singleflight waiters see the error without a presentation and
// retry — spilled results are per-caller, never shared.
var errSpilled = errors.New("etable: result spilled to disk")

// PrepareWithOpts builds the windowed presentation of a pattern. The
// matched relation is an input of the prepare, not a possession of its
// product: it comes from (and stays in) the shared cache under plain
// LRU, and the returned Presentation owns everything its windows read,
// so it stays valid however soon the cache evicts the relation.
//
// On a cache miss the presentation is folded directly off the engine's
// stream (PrepareFromSource): the match never exists as a chain of
// materialized intermediates, only as the final spliced relation that
// goes into the cache. The fold happens only when this caller is the
// compute leader — singleflight waiters, cache hits and joinless
// patterns (whose match is the cached base itself) receive the relation
// and prepare from it with PrepareOpts, which yields an identical
// presentation (the fold and the whole-relation passes are both pure
// functions of the tuple set).
//
// With a spill policy in the options, a prepare whose match crosses
// MaxRows comes back disk-resident instead of failing — the spill tier
// is the drain's sink, not a second attempt. Nothing of a spilled
// prepare is cached (its groupings are owned by exactly one caller),
// and the caller must Close the presentation when done paging; Close is
// a no-op on heap-resident presentations, so callers need no special
// casing.
func (e *Executor) PrepareWithOpts(p *Pattern, opt ExecOptions) (*Presentation, error) {
	if err := p.Validate(e.g.Schema()); err != nil {
		return nil, err
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	key := matchPrefix + Signature(p)
	// streamed carries the presentation out of the compute closure when
	// this call ends up being the singleflight leader. Unsynchronized by
	// design: GetOrCompute runs the closure on this goroutine or not at
	// all.
	var streamed *Presentation
	compute := func() (*graphrel.Relation, error) {
		rel, src, err := matchPipeline(e.g, p, opt, e.cache)
		if err != nil || src == nil {
			return rel, err
		}
		pres, rel, err := PrepareFromSource(e.g, p, src, opt)
		if err != nil {
			return nil, err
		}
		streamed = pres
		if rel == nil {
			return nil, errSpilled
		}
		return rel, nil
	}
	for {
		streamed = nil
		rel, err := e.cache.GetOrCompute(key, compute)
		if foreignCancellation(opt.Ctx, err) {
			continue
		}
		if errors.Is(err, errSpilled) {
			if streamed != nil {
				return streamed, nil
			}
			// A waiter whose leader spilled: retry — next round this
			// caller computes (and spills) for itself.
			continue
		}
		if err != nil {
			return nil, err
		}
		if streamed != nil {
			return streamed, nil
		}
		return PrepareOpts(e.g, p, rel, opt)
	}
}

// Execute runs the pattern with intermediate-result reuse (serial,
// uncancellable). See ExecuteWithOpts.
func (e *Executor) Execute(p *Pattern) (*Result, error) {
	return e.ExecuteWithOpts(p, ExecOptions{})
}

// ExecuteWithOpts runs the pattern with intermediate-result reuse under
// execution options. The returned Result is freshly transformed and
// owned by the caller; only the matched relation behind it is shared.
func (e *Executor) ExecuteWithOpts(p *Pattern, opt ExecOptions) (*Result, error) {
	if err := p.Validate(e.g.Schema()); err != nil {
		return nil, err
	}
	matched, err := e.MatchWithOpts(p, opt)
	if err != nil {
		return nil, err
	}
	return transformOpts(e.g, p, matched, opt)
}
