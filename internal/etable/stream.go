package etable

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graphrel"
	"repro/internal/spill"
	"repro/internal/tgm"
)

// The match engine. Instance matching m(Q) has one implementation: the
// pattern's join chain composed as pull-based morsel iterators
// (graphrel.RowSource). Each join step is a StreamJoin stage probing
// batches of the driving side, through the edge type's adjacency handle,
// against a dense ID-keyed index over its (cached, materialized) base
// relation, so no intermediate relation ever exists in full. Eager,
// parallel and spilled are not modes of the engine but what a caller
// does with the stream:
//
//   - draining it: MatchOpts and Executor.MatchWithOpts splice the
//     batches into one arena-backed relation (graphrel.Materialize) —
//     the value that gets cached;
//   - the budget the stages were given: a stage fans its batches out
//     over the pool and splices the outputs in input order, so rows do
//     not depend on the budget;
//   - the sink the drain writes to: PrepareFromSource retains the
//     batches under MaxRows, splices them and runs the one Prepare
//     kernel (PrepareOpts: distinct sorted rows, per-column CSR
//     groupings); past MaxRows, when a policy is set, it replays the
//     retained batches through the external folds, drops them, and
//     folds the rest of the stream batch by batch into disk runs
//     instead of failing;
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
// plan (planFor), selects every node's base through the plan's compiled
// predicates — through cache when the caller has one, so a refined
// branch reuses its siblings' selections — orders the joins by the
// selected bases' exact sizes (orderJoins), and composes them as a
// stream over the start base. The worker budget passes through as
// given: a kernel whose input is one morsel (Select) or one batch (a
// StreamJoin refill) runs serially whatever the budget.
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
	start, steps, err := orderJoins(g, p, bases)
	if err != nil {
		return nil, nil, err
	}
	if len(steps) == 0 {
		return bases[start], nil, nil
	}
	src = graphrel.StreamRelationBatch(bases[start], streamBatchRows)
	for _, st := range steps {
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
	primKey  string
	partKeys []string
	folds    []*graphrel.ExternalGroupFold
	dist     *graphrel.ExternalDistinct
}

// abort discards every spill file of a failed prepare.
func (ps *prepareSpill) abort() {
	for _, f := range ps.folds {
		f.Abort()
	}
	if ps.dist != nil {
		ps.dist.Abort()
	}
}

// beginSpill opens the overflow state for a pattern: one external fold
// per pattern node other than the primary, in pattern order (the order
// layoutColumns expects), plus the external distinct.
func beginSpill(pol *graphrel.SpillPolicy, p *Pattern) (*prepareSpill, error) {
	budget := pol.NewBudget()
	ps := &prepareSpill{primKey: p.Primary}
	for _, n := range p.Nodes {
		if n.Key == p.Primary {
			continue
		}
		f, err := graphrel.NewExternalGroupFold(pol, budget)
		if err != nil {
			ps.abort()
			return nil, err
		}
		ps.partKeys, ps.folds = append(ps.partKeys, n.Key), append(ps.folds, f)
	}
	var err error
	if ps.dist, err = graphrel.NewExternalDistinct(pol, budget); err != nil {
		ps.abort()
		return nil, err
	}
	return ps, nil
}

// fold folds one batch of the match into the external passes.
func (ps *prepareSpill) fold(b *graphrel.Relation) error {
	primCol := b.ColumnNamed(ps.primKey)
	if primCol == nil {
		return fmt.Errorf("etable: stream has no attribute %q", ps.primKey)
	}
	if err := ps.dist.Add(primCol); err != nil {
		return err
	}
	for i, k := range ps.partKeys {
		if err := ps.folds[i].Append(b, ps.primKey, k); err != nil {
			return err
		}
	}
	return nil
}

// PrepareFromSource builds the windowed presentation from a streamed
// match. On the heap it is a drain and the one Prepare kernel: batches
// are retained under MaxRows, spliced into the materialized relation on
// EOF (graphrel.ConcatAll — the value the executor caches so later
// prepares of the signature skip the match) and handed to PrepareOpts,
// so the returned presentation is PrepareOpts over the returned relation
// by construction. The source is Closed before returning, success or
// not.
//
// With a spill policy set, crossing MaxRows does not fail: the retained
// batches are replayed through the external folds and dropped, and the
// drain continues with bounded memory (prepareSpilled). A spilled
// prepare returns a nil relation (there is nothing heap-resident to
// cache); the presentation's groupings fault through the policy's pager
// pool and the caller owns its Close.
func PrepareFromSource(g *tgm.InstanceGraph, p *Pattern, src graphrel.RowSource, opt ExecOptions) (*Presentation, *graphrel.Relation, error) {
	defer src.Close()
	if p.PrimaryNode() == nil {
		return nil, nil, fmt.Errorf("etable: pattern has no primary node")
	}
	var batches []*graphrel.Relation
	total := 0
	for {
		b, err := src.Next()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			break
		}
		batches = append(batches, b)
		total += b.Len()
		if opt.MaxRows > 0 && total > opt.MaxRows {
			if opt.Spill == nil {
				return nil, nil, graphrel.LimitExceeded(opt.MaxRows, total)
			}
			pr, err := prepareSpilled(g, p, src, opt, batches)
			return pr, nil, err
		}
	}
	matched, err := graphrel.ConcatAll(g, src.Attrs(), batches)
	if err != nil {
		return nil, nil, err
	}
	pr, err := PrepareOpts(g, p, matched, opt)
	if err != nil {
		return nil, nil, err
	}
	return pr, matched, nil
}

// prepareSpilled is the demoted prepare: head — the batches drained
// before the cap tripped, the tripping one included — replays through
// the external folds, then the rest of src folds batch by batch, so the
// heap never holds more than the cap's worth of tuples. The external
// passes are ascending by construction, so the canonical row order and
// the canonical groups fall out of their merges.
func prepareSpilled(g *tgm.InstanceGraph, p *Pattern, src graphrel.RowSource, opt ExecOptions, head []*graphrel.Relation) (*Presentation, error) {
	total := 0 // rows drained so far: what a budget failure reports
	for _, b := range head {
		total += b.Len()
	}
	ps, err := beginSpill(opt.Spill, p)
	if err != nil {
		return nil, spillErr(err, opt.MaxRows, total)
	}
	pr := &Presentation{g: g, pattern: p, primType: g.Schema().NodeType(p.PrimaryNode().Type)}
	// fail releases both sides: the folds still open and the files
	// already handed to the presentation (run-file Close is idempotent).
	fail := func(err error) (*Presentation, error) {
		ps.abort()
		pr.Close()
		return nil, spillErr(err, opt.MaxRows, total)
	}
	for i, b := range head {
		head[i] = nil // folded batches are dropped, not retained
		if err := ps.fold(b); err != nil {
			return fail(err)
		}
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
		if err := ps.fold(b); err != nil {
			return fail(err)
		}
	}
	pr.closeOnce = new(sync.Once)
	if pr.rowIDs, err = ps.dist.Finish(); err != nil {
		return fail(err)
	}
	parts := make([]groupSource, 0, len(ps.folds))
	for _, f := range ps.folds {
		sg, err := f.Finish()
		if err != nil {
			return fail(err)
		}
		pr.closers = append(pr.closers, sg)
		parts = append(parts, sg)
	}
	if err := pr.layoutColumns(p, parts); err != nil {
		return fail(err)
	}
	return pr, nil
}
