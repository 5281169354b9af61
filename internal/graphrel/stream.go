package graphrel

import (
	"context"
	"fmt"

	"repro/internal/tgm"
)

// Streaming kernels: the pull-based, morsel-batched join that
// enumerates a match. A RowSource yields a relation's tuples in bounded
// batches (MorselRows rows each), so a chain of StreamJoin stages holds
// one batch per stage in memory. StreamJoin runs the reference Join's
// per-range phases (joinIndex.probe + joinOutput) over contiguous input
// runs consumed in order, so a stream's batches concatenate to Join's
// output row for row, whatever the batch size (MaterializeMax is that
// concatenation). A consumer that stops pulling stops all upstream
// production, Close propagates upstream, and cancellation is checked
// between batches.

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

// joinSource is StreamJoin's stage: each refill pulls one batch from
// upstream, probes it, and queues the output re-split into morsel-sized
// zero-copy slices, so one high-fan-out probe batch does not become one
// giant downstream batch.
type joinSource struct {
	src   RowSource
	ctx   context.Context
	attrs []Attr
	right *Relation
	index joinIndex
	adj   tgm.Adjacency
	li    int

	queue  []*Relation
	done   bool
	err    error
	closed bool
}

func (s *joinSource) Graph() *tgm.InstanceGraph { return s.src.Graph() }
func (s *joinSource) Attrs() []Attr             { return s.attrs }

func (s *joinSource) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.queue = nil
	s.src.Close()
}

// fail records a sticky error and releases the upstream.
func (s *joinSource) fail(err error) (*Relation, error) {
	s.err = err
	s.Close()
	return nil, err
}

func (s *joinSource) Next() (*Relation, error) {
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
		b, err := s.src.Next()
		if err != nil {
			return s.fail(err)
		}
		if b == nil {
			s.done = true
			continue
		}
		lrows, rrows := s.index.probe(s.adj, b.cols[s.li])
		if len(lrows) == 0 {
			continue
		}
		out := joinOutput(b, s.right, lrows, rrows)
		if out.n <= MorselRows {
			s.queue = append(s.queue, out)
			continue
		}
		for lo := 0; lo < out.n; lo += MorselRows {
			s.queue = append(s.queue, out.slice(lo, min(lo+MorselRows, out.n)))
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
// lives as long as the stream does. against walks edgeType from its
// target (at leftAttr) to its source (at rightAttr): the one way to
// join against a type stored one way only.
func StreamJoin(ctx context.Context, src RowSource, right *Relation, edgeType string, against bool, leftAttr, rightAttr string) (RowSource, error) {
	hdr := header(src)
	li, ri, adj, err := checkJoin(hdr, right, edgeType, against, leftAttr, rightAttr)
	if err != nil {
		return nil, err
	}
	attrs := make([]Attr, 0, len(hdr.Attrs)+len(right.Attrs))
	attrs = append(append(attrs, hdr.Attrs...), right.Attrs...)
	return &joinSource{
		src: src, ctx: ctx, attrs: attrs, right: right,
		index: buildJoinIndex(right, ri), adj: adj, li: li,
	}, nil
}

// RowLimitError reports a read that exceeded the caller's row cap: a
// streamed materialization (MaterializeMax), terminated early so a
// pathological result fails fast and bounded instead of allocating
// without limit, or a window wider than the session's cap.
type RowLimitError struct {
	// Limit is the row cap that was exceeded.
	Limit int
	// Rows is the row count observed when the cap tripped: a window's
	// exact width, a lower bound where a drain stopped producing at the
	// cap (0 when the layer does not track it).
	Rows int
}

func (e *RowLimitError) Error() string {
	if e.Rows > 0 {
		return fmt.Sprintf("graphrel: result exceeds %d rows (observed %d)", e.Limit, e.Rows)
	}
	return fmt.Sprintf("graphrel: result exceeds %d rows", e.Limit)
}

// LimitExceeded builds the row-cap error every enforcement point —
// MaterializeMax's drain and the session's pre-window check — routes
// through, so the surfaced payload (cap, observed rows) is identical no
// matter which layer tripped.
func LimitExceeded(limit, rows int) *RowLimitError {
	return &RowLimitError{Limit: limit, Rows: rows}
}

// MaterializeMax drains src and concatenates its batches into one
// arena-backed relation — the lazy-materialization point where a
// streamed pipeline becomes a shareable, cacheable Relation. Batches
// are spliced in stream order, so the result does not depend on how
// the stream was batched. As soon as the drained row count exceeds max,
// the source is Closed (terminating upstream production) and a
// *RowLimitError is returned; max <= 0 means no cap. The source is
// Closed before returning, success or not.
func MaterializeMax(src RowSource, max int) (*Relation, error) {
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
