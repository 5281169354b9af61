package etable

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// ExecOptions configures one execution: the cancellation context and
// the intra-query parallelism budget. The zero value is serial,
// uncancellable execution — exactly the pre-parallelism behavior.
type ExecOptions struct {
	// Ctx cancels execution between morsels and join steps; nil never
	// cancels. An abandoned HTTP request propagates its context here so
	// a heavy join stops mid-flight instead of computing for nobody.
	Ctx context.Context
	// Pool supplies helper workers. nil executes serially. The pool is
	// shared process-wide (the server owns one), so its capacity is the
	// hard cap on total helper goroutines across all concurrent queries.
	Pool *exec.Pool
	// Parallelism is this query's worker budget (the per-request knob):
	// at most this many workers — the calling goroutine plus helpers
	// drawn from Pool — cooperate on each kernel. Values <= 1 are
	// serial.
	Parallelism int
	// Stream selects the matching core's execution mode: cost-gated
	// streaming (StreamAuto, the zero value), always eager (StreamOff),
	// or always streaming (StreamOn). Both modes produce identical
	// relations; streaming bounds intermediate memory by the consumer's
	// appetite instead of the relation's size (see stream.go).
	Stream StreamMode
	// MaxRows caps the number of rows any full materialization of this
	// execution may produce; 0 is unbounded. Exceeding the cap fails
	// with *graphrel.RowLimitError instead of allocating without limit —
	// the server's -max-rows guard. The streaming path enforces it
	// batch by batch (terminating upstream production early); the eager
	// path checks after each join step. Errors are never cached.
	MaxRows int
	// Spill enables spill-to-disk execution for the browsable prepare
	// path: when set, a streamed prepare that crosses MaxRows overflows
	// its materialization and its breaker folds to temp-file runs
	// (internal/spill) instead of failing, and MaxRows becomes the
	// spill trigger. The policy's MaxBytes stays a hard cap — exceeding
	// it fails with the same *graphrel.RowLimitError. nil disables
	// spilling (the pre-spill MaxRows semantics).
	Spill *graphrel.SpillPolicy
	// Planner selects the join-ordering policy: PlannerAuto (the zero
	// value) adapts to the corpus size, PlannerGreedy and PlannerCost
	// force one arm. Forced modes cache under their own keys, so
	// ablation runs never dislodge the adaptive plans.
	Planner PlannerMode
	// NoPlanCache bypasses the plan cache: every execution plans from
	// scratch. Under PlannerAuto it runs the exact pre-plan-cache code
	// path (each decision point re-deriving its own estimates — the
	// plan-every-time baseline for BenchmarkPlanCache and the
	// equivalence fuzz); under a forced Planner mode it builds a fresh
	// uncached plan per call in that mode (the per-policy planning-cost
	// arm of BenchmarkAblation_AdaptivePlanner).
	NoPlanCache bool
}

// parallelMinEstRows is the serial-fallback gate: when the pattern's
// peak estimated scan (EstimatePattern) is below two morsels, the
// fan-out bookkeeping costs more than it buys and the query runs
// serially no matter the budget.
const parallelMinEstRows = 2 * graphrel.MorselRows

// effective resolves the options against the pattern's estimated size:
// parallelism collapses to 1 for queries too small to profit. The
// estimate comes from the plan cache (EstimatePattern); the planned
// execution paths use effectiveFor instead, which reads the already
// resolved plan.
func (o ExecOptions) effective(g *tgm.InstanceGraph, p *Pattern) ExecOptions {
	if o.Pool == nil || o.Parallelism <= 1 {
		o.Parallelism = 1
		return o
	}
	if EstimatePattern(g, p) < parallelMinEstRows {
		o.Parallelism = 1
	}
	return o
}

// effectiveFor is effective against an already resolved plan: no
// estimation runs, the gate reads the plan's peak estimate.
func (o ExecOptions) effectiveFor(pl *Plan) ExecOptions {
	if o.Pool == nil || o.Parallelism <= 1 {
		o.Parallelism = 1
		return o
	}
	if pl.estPeak < parallelMinEstRows {
		o.Parallelism = 1
	}
	return o
}

// effectiveFresh is effective with the estimate recomputed from
// scratch — the NoPlanCache baseline's gate, paying exactly what every
// execution paid before the plan cache existed.
func (o ExecOptions) effectiveFresh(g *tgm.InstanceGraph, p *Pattern) ExecOptions {
	if o.Pool == nil || o.Parallelism <= 1 {
		o.Parallelism = 1
		return o
	}
	if estimatePatternFresh(g, p) < parallelMinEstRows {
		o.Parallelism = 1
	}
	return o
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

// baseRelation builds one pattern node's selected base relation,
// σ_C(R^G), with the node's condition pushed down. The selection scan
// is the first morsel-parallel kernel of a query.
func baseRelation(g *tgm.InstanceGraph, opt ExecOptions) func(n *PatternNode) (*graphrel.Relation, error) {
	return func(n *PatternNode) (*graphrel.Relation, error) {
		r, err := graphrel.BaseNamed(g, n.Type, n.Key)
		if err != nil {
			return nil, err
		}
		return graphrel.SelectPar(opt.Ctx, opt.Pool, opt.Parallelism, r, n.Key, n.Cond)
	}
}

// Match implements the instance matching function m(Q): it joins the
// per-node base graph relations (with their selection conditions pushed
// down) along the pattern's tree edges. Joins run in the selectivity
// order chosen by planJoins, which produces the same tuple set as the
// declaration order (MatchNaive) with smaller intermediates. The
// resulting graph relation has one attribute per pattern node, named by
// the node's key.
func Match(g *tgm.InstanceGraph, p *Pattern) (*graphrel.Relation, error) {
	return MatchColumns(g, p)
}

// MatchOpts is Match under execution options: the selection scans and
// joins run through the morsel-parallel kernels when the options grant
// a budget and the query is big enough to profit (see ExecOptions and
// EstimatePattern), and the whole pipeline runs in streaming mode when
// the options select it (see StreamMode) — same tuples either way, the
// streamed pipeline is materialized on return.
func MatchOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*graphrel.Relation, error) {
	if opt.NoPlanCache && opt.Planner == PlannerAuto {
		opt = opt.effectiveFresh(g, p)
		if opt.wantStreamFresh(g, p) {
			src, err := matchSource(g, p, opt, baseRelation(g, opt))
			if err != nil {
				return nil, err
			}
			return materializeMax(src, opt.MaxRows)
		}
		return matchColumnsOpts(g, p, opt)
	}
	pl, err := planFor(g, p, opt)
	if err != nil {
		return nil, err
	}
	opt = opt.effectiveFor(pl)
	if opt.wantStreamFor(pl, p) {
		src, err := matchSourcePlanned(g, p, pl, opt, pl.baseRelation(g, opt))
		if err != nil {
			return nil, err
		}
		return materializeMax(src, opt.MaxRows)
	}
	return matchColumnsPlanned(g, p, pl, opt)
}

// MatchColumns is Match with projection pushdown: when keep is
// non-empty, attribute columns outside keep are dropped as soon as no
// remaining join anchors on them, and only the keep columns are
// returned. With no keep arguments every pattern node's column is
// retained.
func MatchColumns(g *tgm.InstanceGraph, p *Pattern, keep ...string) (*graphrel.Relation, error) {
	pl, err := planFor(g, p, ExecOptions{})
	if err != nil {
		return nil, err
	}
	return matchColumnsPlanned(g, p, pl, ExecOptions{}, keep...)
}

// matchColumnsPlanned is the planned eager match body: bases selected
// through the plan's compiled predicates, joins in the plan's order,
// actual step cardinalities fed back to the plan cache (planObserve).
func matchColumnsPlanned(g *tgm.InstanceGraph, p *Pattern, pl *Plan, opt ExecOptions, keep ...string) (*graphrel.Relation, error) {
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if p.PrimaryNode() == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	bases, sizes, err := selectedBases(p, pl.baseRelation(g, opt))
	if err != nil {
		return nil, err
	}
	var needed map[string]bool
	if len(keep) > 0 {
		needed = make(map[string]bool, len(keep))
		for _, k := range keep {
			if p.Node(k) == nil {
				return nil, fmt.Errorf("etable: projected key %q is not in the pattern", k)
			}
			needed[k] = true
		}
	}
	matched, actuals, err := matchStepsObserved(bases, pl.startKey, pl.steps, needed, opt)
	if err != nil {
		return nil, err
	}
	planObserve(g, p, pl, sizes, actuals)
	if needed != nil {
		// Restore the caller's column order (pushdown keeps join order).
		return matched.Retain(keep...)
	}
	return matched, nil
}

// matchColumnsOpts is the fresh-planning eager match body: bases, then
// a cost plan over their exact sizes, then the joins. It remains the
// NoPlanCache baseline (and MatchNaive's shape).
func matchColumnsOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions, keep ...string) (*graphrel.Relation, error) {
	if opt.Ctx != nil {
		// Check once up front so even trivial patterns (no conditions,
		// no joins — nothing that would recheck between morsels) observe
		// an already-abandoned request.
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if p.PrimaryNode() == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	bases, sizes, err := selectedBases(p, baseRelation(g, opt))
	if err != nil {
		return nil, err
	}
	start, steps, err := planJoins(g, p, sizes)
	if err != nil {
		return nil, err
	}
	var needed map[string]bool
	if len(keep) > 0 {
		needed = make(map[string]bool, len(keep))
		for _, k := range keep {
			if p.Node(k) == nil {
				return nil, fmt.Errorf("etable: projected key %q is not in the pattern", k)
			}
			needed[k] = true
		}
	}
	matched, err := matchSteps(bases, start, steps, needed, opt)
	if err != nil {
		return nil, err
	}
	if needed != nil {
		// Restore the caller's column order (pushdown keeps join order).
		return matched.Retain(keep...)
	}
	return matched, nil
}

// MatchNaive matches with the pre-planner join order: starting at the
// primary node, taking pattern edges in declaration order. It exists as
// the equivalence baseline the planner is verified against and as the
// ablation arm of the planner benchmark.
func MatchNaive(g *tgm.InstanceGraph, p *Pattern) (*graphrel.Relation, error) {
	if p.PrimaryNode() == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	bases, _, err := selectedBases(p, baseRelation(g, ExecOptions{}))
	if err != nil {
		return nil, err
	}
	start, steps, err := declaredSteps(g.Schema(), p)
	if err != nil {
		return nil, err
	}
	return matchSteps(bases, start, steps, nil, ExecOptions{})
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

// transform implements the format transformation (§5.4.2) serially:
// rows are the distinct primary nodes of the matched relation; columns
// are the base attributes A_b, the participating node columns A_t, and
// the neighbor node columns A_h. It is a full-table render through the
// windowed presentation pipeline (see transform.go): Prepare computes
// the row set and groupings, Window(0, -1) materializes every row.
//
// The enriched table is canonical: rows ascend by primary node ID and
// the entity references of participating cells ascend by node ID, so
// Execute's output does not depend on the join order the planner
// picked.
func transform(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation) (*Result, error) {
	return transformOpts(g, p, matched, ExecOptions{})
}

// transformOpts is transform under execution options: the grouping
// passes and the row materialization fan out over the shared pool in
// morsel-sized row ranges (transformRange), splice-order deterministic
// and row-identical to the serial path.
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
