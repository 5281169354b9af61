package etable

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/tgm"
)

// Planning: the match engine (matchPipeline) and PlanForOpts resolve
// plans through one entry point, planFor, backed by a per-frozen-graph
// plan cache keyed on the pattern's canonical signature. A Plan is what
// can be prepared before any base relation exists: the compiled
// per-node selection predicates. The join order is not part of it —
// matchPipeline derives it from the selected bases' exact sizes
// (orderJoins).
//
// Plans are immutable after publication. The cache lives on the
// instance graph (tgm.PlanCache), so plans share the graph's lifetime
// and can never be served for a different graph. Unfrozen graphs plan
// fresh on every call.

// defaultPlanCacheEntries bounds each graph's plan cache. Plans are a
// few hundred bytes; the bound exists to keep pathological signature
// churn (e.g. fuzzed conditions) from growing without limit, not to
// manage real memory pressure.
const defaultPlanCacheEntries = 256

// Plan is one prepared execution plan for a pattern signature:
// everything derivable before base relations exist. Plans are immutable
// once published, so concurrent executions share them freely.
type Plan struct {
	// preds holds each conditioned node's selection predicate, compiled
	// once at plan time (nil entry = unconditioned node).
	preds map[string]expr.Pred
}

// PlanFor returns the prepared execution plan for p over g, served
// from g's plan cache when g is frozen.
func PlanFor(g *tgm.InstanceGraph, p *Pattern) (*Plan, error) {
	return planFor(g, p, ExecOptions{})
}

// PlanForOpts is PlanFor under execution options: NoPlanCache builds a
// fresh uncached plan — the knob BenchmarkPlanCache drives, and how the
// traced benchmark run times planning without executing.
func PlanForOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*Plan, error) {
	return planFor(g, p, opt)
}

// planFor resolves the plan for one execution — the single planning
// entry point: cache lookup for frozen graphs, fresh build otherwise or
// when the options say NoPlanCache (built, never looked up, never
// inserted). Two goroutines racing on the same signature may both
// build; the insert is last-writer-wins and the plans are
// interchangeable, so no singleflight is needed — planning is a few
// microseconds of pure computation.
func planFor(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*Plan, error) {
	if opt.NoPlanCache || !g.Frozen() {
		return buildPlan(g, p)
	}
	pc := planCacheFor(g)
	sig := Signature(p)
	if pl, ok := pc.get(sig); ok {
		return pl, nil
	}
	pl, err := buildPlan(g, p)
	if err != nil {
		return nil, err
	}
	pc.put(sig, pl)
	return pl, nil
}

// buildPlan compiles every conditioned node's predicate.
func buildPlan(g *tgm.InstanceGraph, p *Pattern) (*Plan, error) {
	preds := make(map[string]expr.Pred, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Cond == nil {
			continue
		}
		nt := g.Schema().NodeType(n.Type)
		if nt == nil {
			return nil, fmt.Errorf("etable: pattern node %q has unknown type %q", n.Key, n.Type)
		}
		pred, err := expr.Compile(n.Cond, nt)
		if err != nil {
			return nil, err
		}
		preds[n.Key] = pred
	}
	return &Plan{preds: preds}, nil
}

// planCacheFor returns g's plan cache, publishing one on first use
// (first-published-wins).
func planCacheFor(g *tgm.InstanceGraph) *planCache {
	if v := g.PlanCache(); v != nil {
		return v.(*planCache)
	}
	return g.SetPlanCache(newPlanCache(defaultPlanCacheEntries)).(*planCache)
}

// planCache is one graph's bounded LRU of prepared plans plus the
// planner telemetry counters surfaced by PlannerStatsFor.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planElem
	head    *planElem // most recently used
	tail    *planElem

	hits, misses, evictions atomic.Int64
}

type planElem struct {
	key        string
	plan       *Plan
	prev, next *planElem
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: make(map[string]*planElem, 16)}
}

func (pc *planCache) get(key string) (*Plan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		pc.misses.Add(1)
		return nil, false
	}
	pc.hits.Add(1)
	pc.moveFront(el)
	return el.plan, true
}

func (pc *planCache) put(key string, pl *Plan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		el.plan = pl
		pc.moveFront(el)
		return
	}
	el := &planElem{key: key, plan: pl}
	pc.entries[key] = el
	pc.pushFront(el)
	if len(pc.entries) > pc.cap {
		last := pc.tail
		pc.unlink(last)
		delete(pc.entries, last.key)
		pc.evictions.Add(1)
	}
}

func (pc *planCache) pushFront(el *planElem) {
	el.prev, el.next = nil, pc.head
	if pc.head != nil {
		pc.head.prev = el
	}
	pc.head = el
	if pc.tail == nil {
		pc.tail = el
	}
}

func (pc *planCache) unlink(el *planElem) {
	if el.prev != nil {
		el.prev.next = el.next
	} else {
		pc.head = el.next
	}
	if el.next != nil {
		el.next.prev = el.prev
	} else {
		pc.tail = el.prev
	}
	el.prev, el.next = nil, nil
}

func (pc *planCache) moveFront(el *planElem) {
	if pc.head == el {
		return
	}
	pc.unlink(el)
	pc.pushFront(el)
}

// PlannerStats is a point-in-time snapshot of one graph's planning
// tier, surfaced by the server as the /api/v1/stats "planner" block.
type PlannerStats struct {
	// Hits and Misses count plan-cache lookups; Entries and Evictions
	// describe the cache's LRU discipline.
	Hits, Misses, Evictions int64
	Entries                 int
}

// PlannerStatsFor snapshots g's planner telemetry. A graph that has
// never planned reports zeros.
func PlannerStatsFor(g *tgm.InstanceGraph) PlannerStats {
	var s PlannerStats
	pc, ok := g.PlanCache().(*planCache)
	if !ok {
		return s
	}
	pc.mu.Lock()
	s.Entries = len(pc.entries)
	pc.mu.Unlock()
	s.Hits = pc.hits.Load()
	s.Misses = pc.misses.Load()
	s.Evictions = pc.evictions.Load()
	return s
}
