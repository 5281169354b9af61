package etable

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graphrel"
	"repro/internal/spill"
	"repro/internal/tgm"
)

// Streaming execution: the matching pipeline composed as pull-based
// morsel iterators (graphrel.RowSource) instead of fully materialized
// intermediates. The planner's join order is unchanged — the same
// selectedBases/planJoins plan drives both modes — but in streaming
// mode each join step is a StreamJoin stage probing batches of the
// driving side against a hash index over its (cached, materialized)
// base relation, so no intermediate relation ever exists in full.
//
// Memory tracks the consumer: a window or LIMIT consumer pulls only
// the batches it needs (graphrel.StreamLimit terminates upstream
// production), and a full consumer holds at most one pipeline's worth
// of in-flight batches plus the batches it has retained. The genuine
// pipeline breakers — the distinct-row pass, the row-ID sort, and the
// per-column groupings — are folded incrementally batch by batch
// (PrepareFromSource), never by materializing first.
//
// Cache and pin semantics are preserved by materializing lazily: the
// first full consumption splices the retained batches into one
// arena-backed relation (graphrel.ConcatAll), which is what gets
// cached and pinned. Batches are contiguous runs of the driving base
// consumed in order and every stage shares its per-range phase with
// the eager kernel, so the spliced relation — and everything derived
// from it — is identical to the eager path's output.

// StreamMode selects how the matching core executes a query.
type StreamMode uint8

const (
	// StreamAuto streams when the pattern's estimated peak scan is
	// large enough to profit (streamMinEstRows) and the pattern has at
	// least one join; small interactive queries stay on the eager path,
	// whose single-relation materialization is cheaper than per-batch
	// bookkeeping. The cost gate runs only on cache misses.
	StreamAuto StreamMode = iota
	// StreamOff always materializes every intermediate (the pre-PR-6
	// behavior).
	StreamOff
	// StreamOn streams every query with at least one join, regardless
	// of estimated size. Joinless patterns are a single cached base
	// relation — streaming them would only copy it.
	StreamOn
)

// streamMinEstRows is the streaming cost gate: below a few morsels of
// estimated peak scan, the eager path's one-shot materialization is
// cheaper than per-batch headers and queue bookkeeping. The estimate
// is the same statistics-only EstimatePattern the parallelism gate
// uses.
const streamMinEstRows = 4 * graphrel.MorselRows

// wantStream decides the execution mode for one compute. It is
// consulted only inside cache-miss compute closures — cache hits never
// pay for the estimate (which itself now comes from the plan cache;
// the planned paths use wantStreamFor to read the already resolved
// plan directly).
func (o ExecOptions) wantStream(g *tgm.InstanceGraph, p *Pattern) bool {
	if len(p.Edges) == 0 {
		return false
	}
	switch o.Stream {
	case StreamOff:
		return false
	case StreamOn:
		return true
	}
	return EstimatePattern(g, p) >= streamMinEstRows
}

// wantStreamFor is wantStream against an already resolved plan.
func (o ExecOptions) wantStreamFor(pl *Plan, p *Pattern) bool {
	if len(p.Edges) == 0 {
		return false
	}
	switch o.Stream {
	case StreamOff:
		return false
	case StreamOn:
		return true
	}
	return pl.estPeak >= streamMinEstRows
}

// wantStreamFresh is wantStream with the estimate recomputed from
// scratch — the NoPlanCache baseline's gate.
func (o ExecOptions) wantStreamFresh(g *tgm.InstanceGraph, p *Pattern) bool {
	if len(p.Edges) == 0 {
		return false
	}
	switch o.Stream {
	case StreamOff:
		return false
	case StreamOn:
		return true
	}
	return estimatePatternFresh(g, p) >= streamMinEstRows
}

// streamBatchRows overrides the streamed pipeline's batch size; 0 uses
// graphrel.MorselRows. Tests shrink it to exercise multi-batch
// pipelines on hand-checkable fixtures.
var streamBatchRows = 0

// MatchSource returns the pattern's instance matching m(Q) as a
// pull-based stream of morsel batches: the planner's base relations
// are built (and their selections pushed down) exactly as in MatchOpts,
// then the join chain starting from the planner's start base is
// composed as StreamJoin stages instead of materializing joins.
// Concatenating the stream's batches in order yields exactly
// MatchOpts(g, p, opt); consuming only a window of it does only the
// driving-side work that window needs. The caller must Close the
// source (Materialize and PrepareFromSource do so themselves).
func MatchSource(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (graphrel.RowSource, error) {
	if opt.NoPlanCache && opt.Planner == PlannerAuto {
		opt = opt.effectiveFresh(g, p)
		return matchSource(g, p, opt, baseRelation(g, opt))
	}
	pl, err := planFor(g, p, opt)
	if err != nil {
		return nil, err
	}
	opt = opt.effectiveFor(pl)
	return matchSourcePlanned(g, p, pl, opt, pl.baseRelation(g, opt))
}

// matchSource is MatchSource with fresh planning, parameterized by the
// base-relation builder: the NoPlanCache baseline's streamed path.
func matchSource(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions, base func(*PatternNode) (*graphrel.Relation, error)) (graphrel.RowSource, error) {
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if p.PrimaryNode() == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	bases, sizes, err := selectedBases(p, base)
	if err != nil {
		return nil, err
	}
	start, steps, err := planJoins(g, p, sizes)
	if err != nil {
		return nil, err
	}
	return composeStream(bases, start, steps, opt)
}

// matchSourcePlanned composes the streamed pipeline from a prepared
// plan, parameterized by the base-relation builder so the executor's
// cached bases slot in (Executor.base). The streaming path never
// materializes intermediates, so it contributes nothing to the
// feedback loop.
func matchSourcePlanned(g *tgm.InstanceGraph, p *Pattern, pl *Plan, opt ExecOptions, base func(*PatternNode) (*graphrel.Relation, error)) (graphrel.RowSource, error) {
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if p.PrimaryNode() == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	bases, _, err := selectedBases(p, base)
	if err != nil {
		return nil, err
	}
	return composeStream(bases, pl.startKey, pl.steps, opt)
}

// composeStream chains the join plan as StreamJoin stages over the
// driving base's batch stream — the shared tail of both source paths.
func composeStream(bases map[string]*graphrel.Relation, start string, steps []JoinStep, opt ExecOptions) (graphrel.RowSource, error) {
	src := graphrel.StreamRelationBatch(bases[start], streamBatchRows)
	for _, st := range steps {
		var err error
		src, err = graphrel.StreamJoin(opt.Ctx, opt.Pool, opt.Parallelism, src, bases[st.NewKey], st.EdgeName, st.AnchorKey, st.NewKey)
		if err != nil {
			return nil, err
		}
	}
	return src, nil
}

// materializeMax drains a streamed match under the options' row cap
// (MaxRows <= 0 = unbounded).
func materializeMax(src graphrel.RowSource, maxRows int) (*graphrel.Relation, error) {
	if maxRows > 0 {
		return graphrel.MaterializeMax(src, maxRows)
	}
	return graphrel.Materialize(src)
}

// spillErr translates a spill-layer write failure into the execution
// layer's vocabulary: budget exhaustion (-max-spill-bytes) becomes the
// row cap's typed *RowLimitError — the same 413 the row threshold
// produced before spilling existed — and everything else passes
// through.
func spillErr(err error, limit, rows int) error {
	var be *spill.BudgetError
	if errors.As(err, &be) {
		return graphrel.LimitExceeded(limit, rows)
	}
	return err
}

// prepareSpill is the overflow state of one spilling prepare: the run
// sink for the matched batches, one external fold per participating
// column, and the external distinct pass for the primary rows. All
// files share one byte budget.
type prepareSpill struct {
	sink  *graphrel.RunSink
	folds []*graphrel.ExternalGroupFold
	dist  *graphrel.ExternalDistinct
}

// abort discards every spill file of a failed prepare.
func (ps *prepareSpill) abort() {
	if ps == nil {
		return
	}
	ps.sink.Abort()
	for _, f := range ps.folds {
		f.Abort()
	}
	ps.dist.Abort()
}

// beginSpill opens the overflow state and demotes everything the heap
// pass accumulated before the threshold tripped: retained batches into
// the sink, heap folds into the external folds, the distinct row IDs
// into the external distinct.
func beginSpill(g *tgm.InstanceGraph, src graphrel.RowSource, pol *graphrel.SpillPolicy,
	batches []*graphrel.Relation, folds []map[tgm.NodeID][]tgm.NodeID, rowIDs []tgm.NodeID) (*prepareSpill, error) {
	budget := pol.NewBudget()
	sink, err := graphrel.NewRunSink(g, src.Attrs(), pol, budget)
	if err != nil {
		return nil, err
	}
	ps := &prepareSpill{sink: sink}
	fail := func(err error) (*prepareSpill, error) {
		ps.sink.Abort()
		for _, f := range ps.folds {
			f.Abort()
		}
		if ps.dist != nil {
			ps.dist.Abort()
		}
		return nil, err
	}
	for range folds {
		f, err := graphrel.NewExternalGroupFold(pol, budget)
		if err != nil {
			return fail(err)
		}
		ps.folds = append(ps.folds, f)
	}
	if ps.dist, err = graphrel.NewExternalDistinct(pol, budget); err != nil {
		return fail(err)
	}
	for _, b := range batches {
		if err := sink.Add(b); err != nil {
			return fail(err)
		}
	}
	for i, m := range folds {
		if err := ps.folds[i].AbsorbMap(m); err != nil {
			return fail(err)
		}
	}
	if err := ps.dist.Add(rowIDs); err != nil {
		return fail(err)
	}
	return ps, nil
}

// PrepareFromSource builds the windowed presentation directly from a
// streamed match, folding the pipeline breakers batch by batch: the
// distinct primary rows accumulate through a bitset, the per-column
// groupings through incremental pair folds (graphrel.AppendGroupPairs),
// and the batches themselves are retained and spliced into the
// materialized relation on EOF — the lazy-materialization point that
// preserves cache/pin semantics. The returned presentation and
// relation are identical to PrepareOpts over the eager match: rows are
// a pure function of the tuple set (ID-sorted), groups are sorted and
// deduplicated by SortDedupGroups, and the splice preserves row order.
// The source is Closed before returning, success or not.
//
// With a spill policy set, crossing MaxRows does not fail: the heap
// state demotes to spill runs (beginSpill) and the pass continues with
// bounded memory — batches flow into the run sink instead of being
// retained, folds into external sort-merge folds, row IDs into the
// external distinct. A spilled prepare returns a nil relation (there
// is nothing heap-resident to cache); the presentation's groupings
// fault through the policy's pager pool, its matched rows are
// reachable as Spilled(), and the caller owns its Close.
func PrepareFromSource(g *tgm.InstanceGraph, p *Pattern, src graphrel.RowSource, opt ExecOptions) (*Presentation, *graphrel.Relation, error) {
	defer src.Close()
	prim := p.PrimaryNode()
	if prim == nil {
		return nil, nil, fmt.Errorf("etable: pattern has no primary node")
	}
	primType := g.Schema().NodeType(prim.Type)
	pr := &Presentation{g: g, pattern: p, primType: primType}

	// Participating columns fold in pattern order, like PrepareOpts.
	partKeys := make([]string, 0, len(p.Nodes)-1)
	for _, n := range p.Nodes {
		if n.Key != prim.Key {
			partKeys = append(partKeys, n.Key)
		}
	}
	folds := make([]map[tgm.NodeID][]tgm.NodeID, len(partKeys))
	for i := range folds {
		folds[i] = make(map[tgm.NodeID][]tgm.NodeID)
	}

	// Single pass over the stream: retain batches for the final splice
	// and fold rows and groups incrementally. Batches arrive in the
	// eager relation's row order, so the folds accumulate exactly what
	// the eager passes compute over the whole relation.
	seen := graphrel.NewBitset(g.NumNodes())
	var rowIDs []tgm.NodeID
	var batches []*graphrel.Relation
	var ps *prepareSpill
	total := 0
	fail := func(err error) (*Presentation, *graphrel.Relation, error) {
		ps.abort()
		return nil, nil, spillErr(err, opt.MaxRows, total)
	}
	for {
		b, err := src.Next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		total += b.Len()
		if ps == nil && opt.MaxRows > 0 && total > opt.MaxRows {
			if opt.Spill == nil {
				return nil, nil, graphrel.LimitExceeded(opt.MaxRows, total)
			}
			// Threshold crossed: demote the heap state to disk and keep
			// draining with bounded memory.
			ps, err = beginSpill(g, src, opt.Spill, batches, folds, rowIDs)
			if err != nil {
				return nil, nil, spillErr(err, opt.MaxRows, total)
			}
			batches, folds, rowIDs, seen = nil, nil, nil, nil
		}
		primCol := b.ColumnNamed(prim.Key)
		if primCol == nil {
			ps.abort()
			return nil, nil, fmt.Errorf("etable: stream has no attribute %q", prim.Key)
		}
		if ps != nil {
			if err := ps.sink.Add(b); err != nil {
				return fail(err)
			}
			if err := ps.dist.Add(primCol); err != nil {
				return fail(err)
			}
			for i, k := range partKeys {
				if err := ps.folds[i].Append(b, prim.Key, k); err != nil {
					return fail(err)
				}
			}
			continue
		}
		batches = append(batches, b)
		for _, id := range primCol {
			if !seen.TestAndSet(id) {
				rowIDs = append(rowIDs, id)
			}
		}
		for i, k := range partKeys {
			if err := graphrel.AppendGroupPairs(folds[i], b, prim.Key, k); err != nil {
				return nil, nil, err
			}
		}
	}

	// Finish the breakers: canonical row order and canonical groups.
	// The heap path sorts; the external passes are ascending by
	// construction, so the canonical order falls out of the merge.
	var parts []groupSource
	if ps == nil {
		slices.Sort(rowIDs)
		pr.rowIDs = rowIDs
		for _, f := range folds {
			if err := graphrel.SortDedupGroups(opt.Ctx, opt.Pool, opt.Parallelism, f); err != nil {
				return nil, nil, err
			}
			parts = append(parts, mapGroups(f))
		}
	} else {
		ids, err := ps.dist.Finish()
		if err != nil {
			ps.sink.Abort()
			for _, f := range ps.folds {
				f.Abort()
			}
			return nil, nil, spillErr(err, opt.MaxRows, total)
		}
		pr.rowIDs = ids
		pr.closeOnce = new(sync.Once)
		for len(ps.folds) > 0 {
			sg, err := ps.folds[0].Finish()
			ps.folds = ps.folds[1:]
			if err != nil {
				return fail(err)
			}
			pr.closers = append(pr.closers, sg)
			parts = append(parts, spillGroups{sg})
		}
		sr, err := ps.sink.Finish()
		if err != nil {
			pr.Close()
			return nil, nil, spillErr(err, opt.MaxRows, total)
		}
		pr.spilled = sr
		pr.closers = append(pr.closers, sr)
	}

	// Column layout, identical to PrepareOpts.
	for _, a := range primType.Attrs {
		pr.columns = append(pr.columns, Column{Kind: ColBase, Name: a.Name, Attr: a.Name})
	}
	primEdges := primaryEdgeTypes(p, g.Schema())
	for i, k := range partKeys {
		n := p.Node(k)
		pr.columns = append(pr.columns, Column{
			Kind: ColParticipating, Name: n.Key, NodeKey: n.Key,
			EdgeType: primEdges[n.Key], TargetType: n.Type,
		})
		pr.parts = append(pr.parts, partCol{col: len(pr.columns) - 1, src: parts[i]})
	}
	shown := map[string]bool{}
	for _, en := range primEdges {
		if en != "" {
			shown[en] = true
		}
	}
	for _, et := range g.Schema().OutEdges(prim.Type) {
		if shown[et.Name] {
			continue
		}
		pr.columns = append(pr.columns, Column{
			Kind: ColNeighbor, Name: et.Label, EdgeType: et.Name, TargetType: et.Target,
		})
		pr.neighbors = append(pr.neighbors, neighborCol{col: len(pr.columns) - 1, adj: g.Adjacency(et.Name)})
	}

	if err := pr.finishPrepare(); err != nil {
		pr.Close()
		return nil, nil, err
	}
	if ps != nil {
		return pr, nil, nil
	}
	matched, err := graphrel.ConcatAll(g, src.Attrs(), batches)
	if err != nil {
		return nil, nil, err
	}
	return pr, matched, nil
}
