package graphrel

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/tgm"
)

// Streaming kernels: the pull-based, morsel-batched join the execution
// pipeline is composed of. A RowSource yields a relation's tuples as a
// sequence of bounded batches (MorselRows rows each, the same morsel
// discipline as the parallel kernels), so a chain of StreamJoin stages
// holds at most a few morsels per stage in memory instead of every
// intermediate relation in full.
//
// Three properties hold for every pipeline:
//
//   - Row identity: StreamJoin runs the same per-range phases as the
//     reference Join (joinIndex.probe + joinOutput) over batches that are
//     contiguous input runs consumed in order, so concatenating a
//     stream's batches reproduces Join's output row for row — not
//     merely set-equal — whatever the batch size or the fan-out budget.
//     Materialize is that concatenation.
//   - Early termination: a consumer that stops pulling stops all
//     upstream production; StreamLimit additionally Closes its upstream
//     once satisfied, so a LIMIT or a first-page fetch does O(window)
//     work on the driving side instead of O(relation).
//   - Bounded buffering: a stage buffers at most its fan-out width in
//     input batches (the per-query parallelism budget) plus their
//     outputs. Genuine pipeline breakers — sort, GroupNeighbors,
//     DistinctSorted — are not stream operators; consumers that need
//     them Materialize first (see etable.PrepareFromSource), or fold
//     batches into their external forms (spill.go).
//
// Cancellation is checked between batches: a canceled context fails the
// next Next call, and every operator propagates Close upstream so an
// abandoned pipeline releases its batch references promptly.

// RowSource is a pull-based stream of relation tuples in bounded
// batches. Next returns the next batch, or (nil, nil) once the stream
// is exhausted; returned batches are immutable relations under the
// package's sharing contract and stay valid after further Next calls.
// All batches of one source carry identical attribute lists (Attrs).
// After an error, subsequent Next calls return the same error. Close
// releases upstream resources and stops production; it is idempotent,
// and Next after Close reports end of stream. Sources are single-
// consumer: Next and Close must not be called concurrently.
type RowSource interface {
	// Graph returns the instance graph the streamed tuples live in.
	Graph() *tgm.InstanceGraph
	// Attrs returns the attribute list every batch carries.
	Attrs() []Attr
	// Next returns the next non-empty batch, or (nil, nil) at the end.
	Next() (*Relation, error)
	// Close stops production and releases upstream references.
	Close()
}

// StreamRelationBatch streams an existing relation as zero-copy
// batches of batchRows rows (<= 0 uses MorselRows): each batch re-slices
// r's columns, no IDs are copied. It is the leaf every streamed pipeline
// starts from; smaller batches exist for tests (multi-batch pipelines
// over hand-checkable fixtures).
func StreamRelationBatch(r *Relation, batchRows int) RowSource {
	if batchRows <= 0 {
		batchRows = MorselRows
	}
	return &relationSource{r: r, batch: batchRows}
}

type relationSource struct {
	r      *Relation
	batch  int
	off    int
	closed bool
}

func (s *relationSource) Graph() *tgm.InstanceGraph { return s.r.g }
func (s *relationSource) Attrs() []Attr             { return s.r.Attrs }
func (s *relationSource) Close()                    { s.closed = true }

func (s *relationSource) Next() (*Relation, error) {
	if s.closed || s.off >= s.r.n {
		return nil, nil
	}
	hi := s.off + s.batch
	if hi > s.r.n {
		hi = s.r.n
	}
	b := s.r.slice(s.off, hi)
	s.off = hi
	return b, nil
}

// stageSource is StreamJoin's machinery: it pulls a bounded run of
// input batches per refill, applies the per-batch kernel to each —
// fanned out over the pool when a budget is granted, serially
// otherwise — and hands the outputs downstream in input order. The
// in-order splice is what keeps a pipeline's rows independent of its
// budget; the bounded refill width is what keeps memory proportional
// to the parallelism budget, not the relation.
//
// Two details serve first-page latency. The refill width ramps up —
// 1, 2, 4, … capped at the budget — so the first Next on a cold
// pipeline costs one upstream batch per stage instead of prefetching a
// full fan-out a LIMIT consumer will never read, while a full drain
// still reaches the budgeted width within a few refills. And outputs
// larger than MorselRows (a join batch inherits its probe batch's
// fan-out) are re-split into morsel-sized zero-copy slices before
// queuing, so downstream refills stay morsel-grained instead of
// amplifying by the join's expansion factor.
type stageSource struct {
	src    RowSource
	g      *tgm.InstanceGraph
	attrs  []Attr
	ctx    context.Context
	pool   *exec.Pool
	budget int
	apply  func(*Relation) (*Relation, error)

	queue  []*Relation
	width  int // current refill width, ramping 1 → budget
	done   bool
	err    error
	closed bool
}

func (s *stageSource) Graph() *tgm.InstanceGraph { return s.g }
func (s *stageSource) Attrs() []Attr             { return s.attrs }

func (s *stageSource) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.queue = nil
	s.src.Close()
}

// fail records a sticky error and releases the upstream.
func (s *stageSource) fail(err error) (*Relation, error) {
	s.err = err
	s.Close()
	return nil, err
}

func (s *stageSource) Next() (*Relation, error) {
	for {
		if s.err != nil {
			return nil, s.err
		}
		if len(s.queue) > 0 {
			b := s.queue[0]
			s.queue[0] = nil
			s.queue = s.queue[1:]
			return b, nil
		}
		if s.done || s.closed {
			return nil, nil
		}
		if err := ctxErr(s.ctx); err != nil {
			return s.fail(err)
		}
		// Refill: pull up to width batches, then apply the kernel to the
		// whole pull — one pool fan-out per refill instead of per batch.
		max := s.budget
		if s.pool == nil || max < 1 {
			max = 1
		}
		if s.width < 1 {
			s.width = 1
		}
		width := s.width
		if width > max {
			width = max
		}
		s.width = width * 2 // ramp toward the budget for the next refill
		in := make([]*Relation, 0, width)
		for len(in) < width {
			b, err := s.src.Next()
			if err != nil {
				return s.fail(err)
			}
			if b == nil {
				s.done = true
				break
			}
			in = append(in, b)
		}
		if len(in) == 0 {
			continue
		}
		out := make([]*Relation, len(in))
		if s.pool == nil || s.budget <= 1 || len(in) == 1 {
			for i, b := range in {
				r, err := s.apply(b)
				if err != nil {
					return s.fail(err)
				}
				out[i] = r
			}
		} else if err := s.pool.Map(s.ctx, len(in), s.budget, func(i int) error {
			r, err := s.apply(in[i])
			if err != nil {
				return err
			}
			out[i] = r
			return nil
		}); err != nil {
			return s.fail(err)
		}
		for _, b := range out {
			if b == nil || b.n == 0 {
				continue
			}
			// Re-split oversized outputs into morsel-sized zero-copy
			// slices so one high-fan-out probe batch does not become one
			// giant downstream batch.
			if b.n <= MorselRows {
				s.queue = append(s.queue, b)
				continue
			}
			for lo := 0; lo < b.n; lo += MorselRows {
				hi := lo + MorselRows
				if hi > b.n {
					hi = b.n
				}
				s.queue = append(s.queue, b.slice(lo, hi))
			}
		}
	}
}

// header returns a zero-row relation carrying src's attribute list, so
// operator constructors can resolve and type-check attributes without
// pulling a batch.
func header(src RowSource) *Relation {
	attrs := src.Attrs()
	return &Relation{g: src.Graph(), Attrs: attrs, cols: make([][]tgm.NodeID, len(attrs))}
}

// StreamJoin streams src ∗_ρ right: the adjacency handle is resolved and
// loaded and the dense index over the (already materialized) right side
// built once at construction, and each batch probes them through the
// same joinIndex.probe + joinOutput phases as the reference Join, so the
// streamed output concatenates to exactly Join(left, right, …). The
// right side is the join's build side — in the execution pipeline it is
// a cached base relation — so only the probe side streams; the index
// lives as long as the stream does.
func StreamJoin(ctx context.Context, pool *exec.Pool, budget int, src RowSource, right *Relation, edgeType, leftAttr, rightAttr string) (RowSource, error) {
	hdr := header(src)
	li, ri, adj, err := checkJoin(hdr, right, edgeType, leftAttr, rightAttr)
	if err != nil {
		return nil, err
	}
	index := buildJoinIndex(right, ri)
	attrs := make([]Attr, 0, len(hdr.Attrs)+len(right.Attrs))
	attrs = append(append(attrs, hdr.Attrs...), right.Attrs...)
	return &stageSource{
		src: src, g: src.Graph(), attrs: attrs,
		ctx: ctx, pool: pool, budget: budget,
		apply: func(b *Relation) (*Relation, error) {
			lrows, rrows := index.probe(adj, b.cols[li])
			if len(lrows) == 0 {
				return nil, nil
			}
			return joinOutput(b, right, lrows, rrows), nil
		},
	}, nil
}

// StreamLimit truncates src to at most n rows. Once satisfied it
// Closes the upstream, which is the early-termination path: a LIMIT or
// a first-page fetch stops every producer above it instead of letting
// the pipeline compute rows nobody will read. The final batch is
// trimmed zero-copy, so the limited stream is row-identical to the
// first n rows of src.
func StreamLimit(src RowSource, n int) RowSource {
	return &limitSource{src: src, remaining: n}
}

type limitSource struct {
	src       RowSource
	remaining int
	err       error
}

func (l *limitSource) Graph() *tgm.InstanceGraph { return l.src.Graph() }
func (l *limitSource) Attrs() []Attr             { return l.src.Attrs() }
func (l *limitSource) Close()                    { l.src.Close() }

func (l *limitSource) Next() (*Relation, error) {
	if l.err != nil {
		return nil, l.err
	}
	if l.remaining <= 0 {
		return nil, nil
	}
	b, err := l.src.Next()
	if err != nil {
		l.err = err
		return nil, err
	}
	if b == nil {
		l.remaining = 0
		return nil, nil
	}
	if b.n >= l.remaining {
		b = b.slice(0, l.remaining)
		l.remaining = 0
		l.src.Close() // satisfied: stop upstream production
		return b, nil
	}
	l.remaining -= b.n
	return b, nil
}

// RowLimitError reports a streamed materialization that exceeded the
// caller's row cap (MaterializeMax, or the execution layer's MaxRows
// guard). The pipeline is terminated early — the guard exists so a
// pathological result fails fast and bounded instead of allocating
// without limit.
type RowLimitError struct {
	// Limit is the row cap that was exceeded.
	Limit int
	// Rows is the row count observed when the cap tripped (0 when the
	// producing layer does not track it). It is a lower bound on the
	// result's true size: every enforcement point stops producing as
	// soon as the cap is exceeded.
	Rows int
}

func (e *RowLimitError) Error() string {
	if e.Rows > 0 {
		return fmt.Sprintf("graphrel: result exceeds %d rows (observed %d)", e.Limit, e.Rows)
	}
	return fmt.Sprintf("graphrel: result exceeds %d rows", e.Limit)
}

// LimitExceeded builds the row-cap error every enforcement point — the
// drain's per-batch check and the session's pre-window check — routes
// through, so the surfaced payload (cap, observed rows) is identical no
// matter which layer tripped.
func LimitExceeded(limit, rows int) *RowLimitError {
	return &RowLimitError{Limit: limit, Rows: rows}
}

// Materialize drains src and concatenates its batches into one
// arena-backed relation — the lazy-materialization point where a
// streamed pipeline becomes a shareable, cacheable Relation. Batches
// are spliced in stream order, so the result does not depend on how
// the stream was batched. The source is Closed before returning,
// success or not.
func Materialize(src RowSource) (*Relation, error) {
	return materialize(src, 0)
}

// MaterializeMax is Materialize with a row cap: as soon as the drained
// row count exceeds max, the source is Closed (terminating upstream
// production) and a *RowLimitError is returned. max <= 0 means no cap.
func MaterializeMax(src RowSource, max int) (*Relation, error) {
	return materialize(src, max)
}

func materialize(src RowSource, max int) (*Relation, error) {
	defer src.Close()
	var parts []*Relation
	total := 0
	for {
		b, err := src.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		total += b.n
		if max > 0 && total > max {
			return nil, LimitExceeded(max, total)
		}
		parts = append(parts, b)
	}
	return ConcatAll(src.Graph(), src.Attrs(), parts)
}

// ConcatAll is Concat generalized to the streaming consumers' needs: no
// parts yield an empty relation with the given attribute list (a
// drained stream that produced nothing still has a well-formed result),
// and a single part is returned as-is (zero copy — safe under the
// immutability contract, like Retain's column sharing).
func ConcatAll(g *tgm.InstanceGraph, attrs []Attr, parts []*Relation) (*Relation, error) {
	switch len(parts) {
	case 0:
		return newRelation(g, attrs, 0), nil
	case 1:
		return parts[0], nil
	}
	return Concat(parts...)
}
