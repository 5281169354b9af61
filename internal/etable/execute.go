package etable

import (
	"context"
	"errors"

	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// ExecOptions configures one execution: the cancellation context, the
// intra-query parallelism budget, the row cap and its spill policy, and
// the plan-cache bypass. The zero value is serial, uncancellable,
// uncapped execution. Each field names what exercises
// it — a bench/run.sh workload (the server sets the field from a flag
// or per request) or a benchmark in bench_test.go.
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
	// Parallelism is this query's worker budget (the per-request knob):
	// at most this many workers — the calling goroutine plus helpers
	// drawn from Pool — cooperate on each kernel. Values <= 1 are
	// serial, and so is any kernel whose input is one morsel (Select) or
	// one batch (a StreamJoin refill), so tiny interactive queries never
	// pay fan-out overhead. cold_explore and study_mix are the workloads
	// whose cache-miss matches spend it; BenchmarkParallelScaling sweeps
	// it.
	Parallelism int
	// MaxRows caps the rows the match's drain may materialize; 0 is
	// unbounded. The cap applies to the result — intermediates never
	// exist in full — and is enforced batch by batch, terminating
	// upstream production with *graphrel.RowLimitError instead of
	// allocating without limit (the server's -max-rows guard). A
	// joinless match materializes nothing and is never capped. Errors
	// are never cached. outofcore_mix runs at -max-rows 5000.
	MaxRows int
	// Spill turns MaxRows from a failure into a trigger for the
	// browsable prepare path: a prepare whose drain crosses MaxRows
	// demotes its breaker folds to temp-file runs (internal/spill) and
	// keeps going. The policy's MaxBytes stays a hard cap — exceeding it
	// fails with the same *graphrel.RowLimitError. nil disables spilling.
	// outofcore_mix runs with it (-spill-dir); BenchmarkSpilledFirstPage
	// measures it.
	Spill *graphrel.SpillPolicy
	// NoPlanCache builds the plan for this execution from scratch and
	// neither looks it up in nor inserts it into the graph's plan cache.
	// It is the plan-every-time arm of BenchmarkPlanCache, and how the
	// traced benchmark run (bench/run.sh --trace 1) times a cold plan.
	NoPlanCache bool
}

// Execute runs a query pattern over an instance graph: instance matching
// (Definition 4) followed by format transformation (§5.4.2). It is
// ExecuteOpts with zero options (serial, uncancellable).
func Execute(g *tgm.InstanceGraph, p *Pattern) (*Result, error) {
	return ExecuteOpts(g, p, ExecOptions{})
}

// ExecuteOpts is Execute with a cancellation context and a parallelism
// budget. Parallel and serial execution return identical results (the
// morsel kernels are splice-order deterministic); options only affect
// latency and cancellation.
func ExecuteOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*Result, error) {
	if err := p.Validate(g.Schema()); err != nil {
		return nil, err
	}
	matched, err := MatchOpts(g, p, opt)
	if err != nil {
		return nil, err
	}
	return transformOpts(g, p, matched, opt)
}

// Match implements the instance matching function m(Q): it joins the
// per-node base graph relations (with their selection conditions pushed
// down) along the pattern's tree edges, in the order orderJoins chose —
// the same tuple set as any other order, with smaller intermediates.
// The resulting graph relation has one attribute per pattern node,
// named by the node's key. It is MatchOpts with zero options.
func Match(g *tgm.InstanceGraph, p *Pattern) (*graphrel.Relation, error) {
	return MatchOpts(g, p, ExecOptions{})
}

// MatchOpts is Match under execution options: the engine's stream (see
// stream.go) drained into one relation, under the options' budget,
// cancellation and row cap.
func MatchOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*graphrel.Relation, error) {
	return matchRelation(g, p, opt, nil)
}

// errDisconnected reports a pattern whose edges do not connect all nodes
// (Validate catches this earlier for user-built patterns).
var errDisconnected = errors.New("etable: pattern is disconnected")

// orientEdge decides whether a pattern edge can extend the joined set:
// if exactly one endpoint is joined, it returns the join anchored at it,
// using the reverse edge type when traversing against the stored
// orientation. Self-paired edge types (no reverse) traverse by the same
// name both ways.
func orientEdge(schema *tgm.SchemaGraph, e PatternEdge, joined map[string]bool) (anchorKey, newKey, edgeName string, ok bool) {
	switch {
	case joined[e.From] && !joined[e.To]:
		return e.From, e.To, e.EdgeType, true
	case joined[e.To] && !joined[e.From]:
		et := schema.EdgeType(e.EdgeType)
		if et == nil || et.Reverse == "" {
			return e.To, e.From, e.EdgeType, true
		}
		return e.To, e.From, et.Reverse, true
	default:
		return "", "", "", false
	}
}

// transformOpts implements the format transformation (§5.4.2) as a
// full-table render through the windowed presentation pipeline (see
// transform.go): PrepareOpts computes the row set and groupings,
// WindowOpts(0, -1) materializes every row. The grouping passes and the
// row materialization fan out over the shared pool in morsel-sized row
// ranges (transformRange), splice-order deterministic and row-identical
// to a serial run.
//
// The enriched table is canonical: rows ascend by primary node ID and
// the entity references of participating cells ascend by node ID, so
// Execute's output does not depend on the join order the planner
// picked.
func transformOpts(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation, opt ExecOptions) (*Result, error) {
	pr, err := PrepareOpts(g, p, matched, opt)
	if err != nil {
		return nil, err
	}
	return pr.WindowOpts(0, -1, opt)
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
