package etable

import (
	"context"
	"errors"

	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// ExecOptions configures one execution: the cancellation context, the
// intra-query parallelism budget, and the row cap and its spill policy.
// The zero value is serial, uncancellable, uncapped execution. Each
// field names what exercises it — a bench/run.sh workload (the server
// sets the field from a flag or per request) or a benchmark in
// bench_test.go.
type ExecOptions struct {
	// Ctx cancels execution between morsels and join steps; nil never
	// cancels. An abandoned HTTP request propagates its context here so
	// a heavy join stops mid-flight instead of computing for nobody.
	// Set on every request of all four workloads.
	Ctx context.Context
	// Pool supplies helper workers. nil executes serially. The pool is
	// shared process-wide (the server owns one), so its capacity is the
	// hard cap on total helper goroutines across all concurrent queries.
	// All four workloads run against the server's pool (-max-workers);
	// BenchmarkParallelScaling sweeps it.
	Pool *exec.Pool
	// Parallelism is this query's worker budget (the session's, fixed
	// when it is built): at most this many workers — the calling
	// goroutine plus helpers drawn from Pool — cooperate on a base
	// selection (graphrel.SelectSet, the one kernel that fans out). Values
	// <= 1 are serial, and so is a selection whose input is one morsel,
	// so tiny interactive queries never pay fan-out overhead.
	// cold_explore and study_mix are the workloads whose cache-miss
	// matches spend it; BenchmarkParallelScaling sweeps it.
	Parallelism int
	// MaxRows caps |m(Q)|, the rows a match may have; 0 is unbounded.
	// The cap applies to the result, whose exact size the reduction
	// counts before anything is enumerated: past it a match or a
	// prepare fails with *graphrel.RowLimitError carrying that size (the
	// server's -max-rows guard). A joinless match is never capped.
	// Errors are never cached. outofcore_mix runs at -max-rows 5000.
	MaxRows int
	// Spill turns MaxRows from a failure into a trigger for the
	// browsable prepare path: a prepare past MaxRows writes each
	// participating column's grouped values to temp-file runs
	// (graphrel.SpillGroups, internal/spill).
	// The policy's MaxBytes stays a hard cap — exceeding it fails with
	// the same *graphrel.RowLimitError. nil disables spilling.
	// outofcore_mix runs with it (-spill-dir); BenchmarkSpilledFirstPage
	// measures it.
	Spill *graphrel.SpillPolicy
	// NoPlanCache is ignored.
	//
	// Deprecated: there is no plan cache; every match miss compiles its
	// plan. The field stays because the benchmark harness in
	// cmd/etable-load still sets it.
	NoPlanCache bool
}

// Execute runs a query pattern over an instance graph: instance matching
// (Definition 4) followed by format transformation (§5.4.2). It is
// ExecuteOpts with zero options (serial, uncancellable).
func Execute(g *tgm.InstanceGraph, p *Pattern) (*Result, error) {
	return ExecuteOpts(g, p, ExecOptions{})
}

// ExecuteOpts is Execute under execution options, which affect only
// latency, cancellation and the row cap: the prepare of the reduced
// match rendered in full (WindowOpts(0, -1)). The enriched table is
// canonical: rows and the references of participating cells ascend by
// node ID.
func ExecuteOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*Result, error) {
	if err := p.Validate(g.Schema()); err != nil {
		return nil, err
	}
	t, err := treeOf(g, p)
	if err != nil {
		return nil, err
	}
	red, err := matchPipeline(g, p, t, opt, nil)
	if err != nil {
		return nil, err
	}
	pr, err := prepareReduced(g, p, t, red, opt)
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	return pr.WindowOpts(0, -1, opt)
}

// Match implements the instance matching function m(Q): the tuples of
// the per-node base graph relations (with their selection conditions
// pushed down) joined along the pattern's tree edges. The resulting
// graph relation has one attribute per pattern node, named by the
// node's key. It is MatchOpts with zero options.
func Match(g *tgm.InstanceGraph, p *Pattern) (*graphrel.Relation, error) {
	return MatchOpts(g, p, ExecOptions{})
}

// MatchOpts is Match under execution options: the reduced match (see
// stream.go), enumerated into one relation from the primary in tree
// order, under the options' budget and cancellation. Past MaxRows it
// fails before enumerating, with the exact count.
func MatchOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*graphrel.Relation, error) {
	t, err := treeOf(g, p)
	if err != nil {
		return nil, err
	}
	red, err := matchPipeline(g, p, t, opt, nil)
	if err != nil {
		return nil, err
	}
	if len(p.Nodes) == 1 {
		return graphrel.SetRelation(g, t.nodes[0].Type, t.keys[0], red.sets[0])
	}
	if opt.MaxRows > 0 && red.rows > opt.MaxRows {
		return nil, graphrel.LimitExceeded(opt.MaxRows, red.rows)
	}
	src, err := enumerate(g, t, red, opt)
	if err != nil {
		return nil, err
	}
	return graphrel.MaterializeMax(src, 0)
}

// errDisconnected reports a pattern whose edges do not connect all nodes
// (Validate catches this earlier for user-built patterns).
var errDisconnected = errors.New("etable: pattern is disconnected")

// orientEdge decides whether a pattern edge can extend the joined set:
// if exactly one endpoint is joined, it returns the step anchored at it,
// along edgeName oriented anchor → new. Against the stored orientation
// that is the reverse edge type, or, for a type stored one way only (a
// self-loop without a reverse), the type itself walked against it.
func orientEdge(schema *tgm.SchemaGraph, e PatternEdge, joined map[string]bool) (anchorKey, newKey, edgeName string, against, ok bool) {
	switch {
	case joined[e.From] && !joined[e.To]:
		return e.From, e.To, e.EdgeType, false, true
	case joined[e.To] && !joined[e.From]:
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
