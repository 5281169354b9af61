package etable

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/spill"
	"repro/internal/tgm"
)

// The match engine. Instance matching m(Q) has one implementation: the
// pattern's join chain composed as pull-based morsel iterators
// (graphrel.RowSource). Each join step is a StreamJoin stage probing
// one batch of the driving side at a time, through the edge type's
// adjacency handle, against a dense ID-keyed index over its (cached,
// materialized) base relation, so no intermediate relation ever exists
// in full. Eager and spilled are not modes of the engine but the sink
// the drain writes to:
//
//   - MatchOpts splices the batches into one arena-backed relation
//     (graphrel.MaterializeMax);
//   - the executor's prepare (prepareFromSource) retains the batches
//     under MaxRows, splices them — the value that gets cached — and
//     runs the one Prepare kernel (PrepareOpts: distinct sorted rows,
//     per-column CSR groupings); past MaxRows, when a policy is set, it
//     replays the retained batches through the external folds, drops
//     them, and folds the rest of the stream batch by batch into disk
//     runs instead of failing.
//
// Batches are contiguous runs of the driving base consumed in order and
// every stage runs the reference Join's per-range phases, so the
// drained relation — and everything derived from it — is the same
// whatever the batch size or the sink. The worker budget reaches only
// the base selections (graphrel.Select), the one kernel that fans out.

// streamBatchRows overrides the streamed pipeline's batch size; 0 uses
// graphrel.MorselRows. Tests shrink it to exercise multi-batch
// pipelines on hand-checkable fixtures.
var streamBatchRows = 0

// matchPipeline is the engine's single entry: every path that needs
// m(Q) — MatchOpts and the caching Executor — calls it, so how a match
// runs is decided here and nowhere else. It gathers the join's units
// and composes one join loop over them:
//
//   - with a cache, when a resident ancestor's match covers part of the
//     pattern (deriveFrom), that match — narrowed by the conjuncts it
//     lacks — is one unit covering the ancestor's keys;
//   - every other node's unit is its base, selected through the plan's
//     compiled predicate (buildPlan) — through cache when the caller
//     has one and the pattern joins, so a refined branch reuses its
//     siblings' selections.
//
// It then orders the joins by the units' exact sizes (orderJoins) and
// streams them from the smallest unit, each step probing the joined
// unit's relation as the build side. Derived and from-bases matches run
// the same loop. The worker budget passes through to the selections as
// given: a Select whose input is one morsel runs serially whatever the
// budget.
//
// Exactly one result is set. A pattern without edges has nothing to
// join: its selected base is the match, returned as rel so callers hand
// out the (cached, zero-copy) relation itself instead of draining a
// copy of it — and since nothing is materialized for it, MaxRows does
// not apply (the session bounds what it renders of such a table).
// Otherwise src is the join loop's stream — also when a derived
// ancestor covers every node, so a pattern with edges is always capped
// and spilled the same way; the caller must drain or Close it.
func matchPipeline(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions, cache *Cache) (rel *graphrel.Relation, src graphrel.RowSource, err error) {
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, nil, err
	}
	if p.PrimaryNode() == nil {
		return nil, nil, fmt.Errorf("etable: pattern has no primary node")
	}
	d := deriveFrom(p, cache)
	var residual map[string]expr.Expr
	if d != nil {
		residual = d.residual
	}
	pl, err := buildPlan(g, p, residual)
	if err != nil {
		return nil, nil, err
	}
	units := make([]unit, 0, len(p.Nodes))
	if d != nil {
		anc := d.rel
		for _, k := range d.keys {
			if anc, err = graphrel.Select(opt.Ctx, opt.Pool, opt.Parallelism, anc, k, pl.preds[k]); err != nil {
				return nil, nil, err
			}
		}
		units = append(units, unit{keys: d.keys, rel: anc})
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if _, covered := residual[n.Key]; covered {
			continue
		}
		selectBase := func() (*graphrel.Relation, error) {
			r, err := graphrel.BaseNamed(g, n.Type, n.Key)
			if err != nil {
				return nil, err
			}
			return graphrel.Select(opt.Ctx, opt.Pool, opt.Parallelism, r, n.Key, pl.preds[n.Key])
		}
		// A joinless pattern's base is its match, which the caller
		// caches under the match key: a second entry under the base
		// key would hold the same relation twice.
		var base *graphrel.Relation
		if cache == nil || len(p.Nodes) == 1 {
			base, err = selectBase()
		} else {
			base, err = getOrComputeLive(opt.Ctx, cache, basePrefix+nodeSignature(n), selectBase)
		}
		if err != nil {
			return nil, nil, err
		}
		units = append(units, unit{keys: []string{n.Key}, rel: base})
	}
	if len(p.Nodes) == 1 {
		return units[0].rel, nil, nil
	}
	start, steps, err := orderJoins(g, p, units)
	if err != nil {
		return nil, nil, err
	}
	src = graphrel.StreamRelationBatch(start.rel, streamBatchRows)
	for _, st := range steps {
		src, err = graphrel.StreamJoin(opt.Ctx, src, st.right, st.EdgeName, st.AnchorKey, st.NewKey)
		if err != nil {
			return nil, nil, err
		}
	}
	return nil, src, nil
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
// external fold per participating column, grouped by the primary — what
// the presentation's windows read back, and nothing else. Every matched
// tuple carries the primary, so each fold's group keys are exactly the
// distinct primary rows: the first fold's keys are the row order. The
// matched batches themselves are dropped once folded: no window reads
// the relation after Prepare. All files share one byte budget.
type prepareSpill struct {
	primKey  string
	partKeys []string
	folds    []*graphrel.ExternalGroupFold
}

// abort discards every spill file of a failed prepare.
func (ps *prepareSpill) abort() {
	for _, f := range ps.folds {
		f.Abort()
	}
}

// beginSpill opens the overflow state for a pattern: one external fold
// per pattern node other than the primary, in pattern order (the order
// layoutColumns expects). Only a pattern with a join streams, so there
// is at least one.
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
	if len(ps.folds) == 0 {
		return nil, fmt.Errorf("etable: a spilled pattern has no participating column")
	}
	return ps, nil
}

// fold folds one batch of the match into the external passes.
func (ps *prepareSpill) fold(b *graphrel.Relation) error {
	for i, k := range ps.partKeys {
		if err := ps.folds[i].Append(b, ps.primKey, k); err != nil {
			return err
		}
	}
	return nil
}

// prepareFromSource builds the windowed presentation from a streamed
// match; Executor.PrepareWithOpts calls it as the compute leader. On
// the heap it is a drain and the one Prepare kernel: batches are
// retained under MaxRows, spliced into the materialized relation on
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
func prepareFromSource(g *tgm.InstanceGraph, p *Pattern, src graphrel.RowSource, opt ExecOptions) (*Presentation, *graphrel.Relation, error) {
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
// folds are ascending by construction, so the canonical row order and
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
	parts := make([]groupSource, 0, len(ps.folds))
	for i, f := range ps.folds {
		sg, keys, err := f.Finish()
		if err != nil {
			return fail(err)
		}
		if i == 0 {
			pr.rowIDs = keys
		}
		pr.closers = append(pr.closers, sg)
		parts = append(parts, sg)
	}
	if err := pr.layoutColumns(p, parts); err != nil {
		return fail(err)
	}
	return pr, nil
}
