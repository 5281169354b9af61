package etable

import (
	"context"
	"errors"

	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// ExecOptions is the execution options of the entries the benchmark
// harness in cmd/etable-load calls (MatchOpts, PrepareOpts, PlanForOpts
// and WindowOpts): its cancellation context. The zero value is
// uncancellable execution. Every other entry takes the context itself.
// No option caps a match: a presentation holds its reduced sets
// whatever |m(Q)| is, and the widest window a request may read is the
// session's guard (session.SetMaxRows).
type ExecOptions struct {
	// Ctx cancels execution between morsels and semi-join steps; nil
	// never cancels.
	Ctx context.Context
	// Pool is ignored.
	//
	// Deprecated: no selection fans out; every execution runs on its
	// caller's goroutine. The field stays because the benchmark harness
	// in cmd/etable-load still sets it.
	Pool *exec.Pool
	// Parallelism is ignored.
	//
	// Deprecated: no selection fans out; every execution runs on its
	// caller's goroutine. The field stays because the benchmark harness
	// in cmd/etable-load still sets it.
	Parallelism int
	// NoPlanCache is ignored.
	//
	// Deprecated: there is no plan cache; every match miss compiles its
	// plan. The field stays because the benchmark harness in
	// cmd/etable-load still sets it.
	NoPlanCache bool
}

// Execute runs a query pattern over an instance graph: instance matching
// (Definition 4) followed by format transformation (§5.4.2), through a
// private cache's Prepare rendered in full. The enriched table is
// canonical: rows and the references of participating cells ascend by
// node ID.
func Execute(g *tgm.InstanceGraph, p *Pattern) (*Result, error) {
	pr, err := NewCache(DefaultCacheEntries).Prepare(context.Background(), g, p)
	if err != nil {
		return nil, err
	}
	return pr.Window(0, -1)
}

// MatchOpts implements the instance matching function m(Q)
// (Definition 4) as an uncached miss computes it (matchPipeline): one
// reduced set per pattern node, keyed by its key. It loads every tree
// edge's Down for Len, returning a failed deferred load's error.
func MatchOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*graphrel.Relation, error) {
	t, err := treeOf(g, p)
	if err != nil {
		return nil, err
	}
	rel, err := matchPipeline(opt.Ctx, g, p, t, nil)
	if err != nil {
		return nil, err
	}
	for _, e := range t.edges[1:] {
		if err := e.Down.Ensure(); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// errDisconnected reports a pattern whose edges do not connect all nodes
// (Validate catches this earlier for user-built patterns).
var errDisconnected = errors.New("etable: pattern is disconnected")

// orientEdge decides whether a pattern edge can extend the joined set,
// whose membership joined reports: if exactly one endpoint is joined,
// it returns the step anchored at it, along edgeName oriented anchor →
// new. Against the stored orientation that is the reverse edge type,
// or, for a type stored one way only (a self-loop without a reverse),
// the type itself walked against it.
func orientEdge(schema *tgm.SchemaGraph, e PatternEdge, joined func(key string) bool) (anchorKey, newKey, edgeName string, against, ok bool) {
	switch {
	case joined(e.From) && !joined(e.To):
		return e.From, e.To, e.EdgeType, false, true
	case joined(e.To) && !joined(e.From):
		if et := schema.EdgeType(e.EdgeType); et != nil && et.Reverse != "" {
			return e.To, e.From, et.Reverse, false, true
		}
		return e.To, e.From, e.EdgeType, true, true
	default:
		return "", "", "", false, false
	}
}

// primaryEdgeTypes maps each pattern node key adjacent to the primary
// node to the edge type oriented primary → that node ("" for nodes not
// adjacent to the primary). Edges stored in the opposite orientation
// count through their reverse edge type, so that the neighbor-column
// overlap suppression works regardless of which end was primary when
// the edge was added.
func primaryEdgeTypes(p *Pattern, schema *tgm.SchemaGraph) map[string]string {
	out := map[string]string{}
	for _, e := range p.Edges {
		switch {
		case e.From == p.Primary:
			out[e.To] = e.EdgeType
		case e.To == p.Primary:
			if et := schema.EdgeType(e.EdgeType); et != nil && et.Reverse != "" {
				out[e.From] = et.Reverse
			}
		}
	}
	return out
}
