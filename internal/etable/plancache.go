package etable

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/lru"
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
// inserted). Concurrent misses on one signature share one build.
func planFor(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*Plan, error) {
	if opt.NoPlanCache || !g.Frozen() {
		return buildPlan(g, p)
	}
	return planCacheFor(g).Get(Signature(p), func() (*Plan, error) { return buildPlan(g, p) })
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
func planCacheFor(g *tgm.InstanceGraph) *lru.Cache[string, *Plan] {
	if v := g.PlanCache(); v != nil {
		return v.(*lru.Cache[string, *Plan])
	}
	return g.SetPlanCache(lru.New[string, *Plan](defaultPlanCacheEntries)).(*lru.Cache[string, *Plan])
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
	pc, ok := g.PlanCache().(*lru.Cache[string, *Plan])
	if !ok {
		return PlannerStats{}
	}
	st := pc.Stats()
	return PlannerStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Len}
}
