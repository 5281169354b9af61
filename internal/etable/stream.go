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

// The match engine. Instance matching m(Q) has one implementation: the
// plan's join chain composed as pull-based morsel iterators
// (graphrel.RowSource). Each join step is a StreamJoin stage probing
// batches of the driving side against a hash index over its (cached,
// materialized) base relation, so no intermediate relation ever exists
// in full. Eager, parallel and spilled are not modes of the engine but
// what a caller does with the stream:
//
//   - draining it: MatchOpts and Executor.MatchWithOpts splice the
//     batches into one arena-backed relation (graphrel.Materialize) —
//     the value that gets cached;
//   - the budget the stages were given: a stage fans its batches out
//     over the pool and splices the outputs in input order, so rows do
//     not depend on the budget;
//   - the sink the drain writes to: PrepareFromSource folds the
//     pipeline breakers (distinct rows, row-ID sort, per-column
//     groupings) batch by batch, and past MaxRows demotes its state to
//     disk runs instead of failing when a policy is set;
//   - a window or LIMIT consumer pulls only the batches it needs
//     (graphrel.StreamLimit terminates upstream production).
//
// Batches are contiguous runs of the driving base consumed in order and
// every stage runs the reference Join's per-range phases, so the
// drained relation — and everything derived from it — is the same
// whatever the batch size, the budget, or the sink.

// streamBatchRows overrides the streamed pipeline's batch size; 0 uses
// graphrel.MorselRows. Tests shrink it to exercise multi-batch
// pipelines on hand-checkable fixtures.
var streamBatchRows = 0

// matchPipeline is the engine's single entry: every path that needs
// m(Q) — MatchOpts, MatchSource, and the caching Executor — calls it,
// so how a match runs is decided here and nowhere else. It resolves the
// plan (planFor), clamps the worker budget once against the plan's
// peak estimate, selects every node's base through the plan's compiled
// predicates — through cache when the caller has one, so a refined
// branch reuses its siblings' selections — and composes the join steps
// as a stream over the start base.
//
// Exactly one result is set. A pattern without joins has nothing to
// run: its selected base is the match, returned as rel so callers hand
// out the (cached, zero-copy) relation itself instead of draining a
// copy of it — and since nothing is materialized for it, MaxRows does
// not apply (the session bounds what it renders of such a table).
// Otherwise src is the join chain; the caller must drain or Close it.
func matchPipeline(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions, cache *Cache) (rel *graphrel.Relation, src graphrel.RowSource, err error) {
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, nil, err
	}
	if p.PrimaryNode() == nil {
		return nil, nil, fmt.Errorf("etable: pattern has no primary node")
	}
	pl, err := planFor(g, p, opt)
	if err != nil {
		return nil, nil, err
	}
	opt.Parallelism = pl.budget(opt)
	bases := make(map[string]*graphrel.Relation, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		selectBase := func() (*graphrel.Relation, error) {
			r, err := graphrel.BaseNamed(g, n.Type, n.Key)
			if err != nil {
				return nil, err
			}
			return graphrel.Select(opt.Ctx, opt.Pool, opt.Parallelism, r, n.Key, pl.preds[n.Key])
		}
		if cache == nil {
			bases[n.Key], err = selectBase()
		} else {
			bases[n.Key], err = getOrComputeLive(opt.Ctx, cache, basePrefix+nodeSignature(n), selectBase)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if len(pl.steps) == 0 {
		return bases[pl.startKey], nil, nil
	}
	src = graphrel.StreamRelationBatch(bases[pl.startKey], streamBatchRows)
	for _, st := range pl.steps {
		src, err = graphrel.StreamJoin(opt.Ctx, opt.Pool, opt.Parallelism, src, bases[st.NewKey], st.EdgeName, st.AnchorKey, st.NewKey)
		if err != nil {
			return nil, nil, err
		}
	}
	return nil, src, nil
}

// matchRelation drains the engine into the one relation a match is
// cached and returned as, under the options' row cap.
func matchRelation(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions, cache *Cache) (*graphrel.Relation, error) {
	rel, src, err := matchPipeline(g, p, opt, cache)
	if err != nil || src == nil {
		return rel, err
	}
	return graphrel.MaterializeMax(src, opt.MaxRows)
}

// MatchSource returns the pattern's instance matching m(Q) as a
// pull-based stream of morsel batches. Concatenating the stream's
// batches in order yields exactly MatchOpts(g, p, opt); consuming only
// a window of it does only the driving-side work that window needs.
// The caller must Close the source (Materialize and PrepareFromSource
// do so themselves).
func MatchSource(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (graphrel.RowSource, error) {
	rel, src, err := matchPipeline(g, p, opt, nil)
	if err != nil || src != nil {
		return src, err
	}
	return graphrel.StreamRelationBatch(rel, streamBatchRows), nil
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

// prepareSpill is the overflow state of one spilling prepare: one
// external fold per participating column and the external distinct pass
// for the primary rows — what the presentation's windows and row order
// read back, and nothing else. The matched batches themselves are
// dropped once folded: no window reads the relation after Prepare. All
// files share one byte budget.
type prepareSpill struct {
	folds []*graphrel.ExternalGroupFold
	dist  *graphrel.ExternalDistinct
}

// abort discards every spill file of a failed prepare.
func (ps *prepareSpill) abort() {
	if ps == nil {
		return
	}
	for _, f := range ps.folds {
		f.Abort()
	}
	if ps.dist != nil {
		ps.dist.Abort()
	}
}

// beginSpill opens the overflow state and demotes what the heap pass
// accumulated before the threshold tripped: heap folds into the
// external folds, the distinct row IDs into the external distinct.
func beginSpill(pol *graphrel.SpillPolicy, folds []map[tgm.NodeID][]tgm.NodeID, rowIDs []tgm.NodeID) (*prepareSpill, error) {
	budget := pol.NewBudget()
	ps := &prepareSpill{}
	fail := func(err error) (*prepareSpill, error) {
		ps.abort()
		return nil, err
	}
	for _, m := range folds {
		f, err := graphrel.NewExternalGroupFold(pol, budget)
		if err != nil {
			return fail(err)
		}
		ps.folds = append(ps.folds, f)
		if err := f.AbsorbMap(m); err != nil {
			return fail(err)
		}
	}
	var err error
	if ps.dist, err = graphrel.NewExternalDistinct(pol, budget); err != nil {
		return fail(err)
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
// materialized relation on EOF — the value the executor caches so later
// prepares of the signature skip the match. The returned presentation
// is identical to PrepareOpts over the returned relation: rows are a
// pure function of the tuple set (ID-sorted), groups are sorted and
// deduplicated by SortDedupGroups, and the splice preserves row order.
// The source is Closed before returning, success or not.
//
// With a spill policy set, crossing MaxRows does not fail: the heap
// folds demote to spill runs (beginSpill), the retained batches are
// dropped, and the pass continues with bounded memory — folds into
// external sort-merge folds, row IDs into the external distinct. A
// spilled prepare returns a nil relation (there is nothing
// heap-resident to cache); the presentation's groupings fault through
// the policy's pager pool and the caller owns its Close.
func PrepareFromSource(g *tgm.InstanceGraph, p *Pattern, src graphrel.RowSource, opt ExecOptions) (*Presentation, *graphrel.Relation, error) {
	defer src.Close()
	prim := p.PrimaryNode()
	if prim == nil {
		return nil, nil, fmt.Errorf("etable: pattern has no primary node")
	}
	pr := &Presentation{g: g, pattern: p, primType: g.Schema().NodeType(prim.Type)}

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
	// spliced relation's row order, so the folds accumulate exactly what
	// PrepareOpts' passes compute over the whole relation.
	seen := graphrel.NewBitset(g.NumNodes())
	var rowIDs []tgm.NodeID
	var batches []*graphrel.Relation
	var ps *prepareSpill
	total := 0
	fail := func(err error) (*Presentation, *graphrel.Relation, error) {
		ps.abort()
		pr.Close()
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
			if ps, err = beginSpill(opt.Spill, folds, rowIDs); err != nil {
				return fail(err)
			}
			batches, folds, rowIDs, seen = nil, nil, nil, nil
		}
		primCol := b.ColumnNamed(prim.Key)
		if primCol == nil {
			return fail(fmt.Errorf("etable: stream has no attribute %q", prim.Key))
		}
		if ps != nil {
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
	parts := make([]groupSource, 0, len(partKeys))
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
		// A fold's files pass to the presentation as each Finish succeeds;
		// fail releases both sides (run-file Close is idempotent).
		pr.closeOnce = new(sync.Once)
		var err error
		if pr.rowIDs, err = ps.dist.Finish(); err != nil {
			return fail(err)
		}
		for _, f := range ps.folds {
			sg, err := f.Finish()
			if err != nil {
				return fail(err)
			}
			pr.closers = append(pr.closers, sg)
			parts = append(parts, spillGroups{sg})
		}
	}

	if err := pr.layoutColumns(p, parts); err != nil {
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
