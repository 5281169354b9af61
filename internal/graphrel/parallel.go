package graphrel

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/tgm"
)

// Parallel kernels: Select (graphrel.go) and GroupNeighborsPar are
// morsel-driven. Each chunks its input into MorselRows-row morsels,
// fans the morsels out to a shared exec.Pool under a per-query budget,
// and splices the per-morsel outputs into one result without taking
// any lock on the hot path:
//
//   - phase 1 (parallel): every morsel writes into its own private
//     slice or map — no sharing, no locks;
//   - phase 2 (serial, O(#morsels)): prefix-sum the per-morsel counts
//     into disjoint output offsets (Select), or splice the per-morsel
//     groups in morsel order (GroupNeighborsPar);
//   - phase 3 (parallel): every morsel gathers its rows into its own
//     disjoint window of the output arena — disjoint writes, no locks.
//
// The output is row-for-row identical to a serial run, not merely
// set-equal: morsels are contiguous input runs and are spliced in input
// order, and the serial run is the same per-range phase (selectRange,
// groupPairs, sortDedup) over [0, n). Cancellation is checked between
// morsels (exec.Pool.Map), so an abandoned request stops a scan
// mid-flight with ctx.Err(). Both kernels run serially when the input
// is a single morsel, the budget is <= 1, or the pool is nil — tiny
// interactive queries never pay the fan-out overhead. Joins fan out per
// batch inside StreamJoin's stage (stream.go), not here.

// GroupNeighborsPar is GroupNeighbors fanned out over morsels of r: the
// per-morsel pair collection runs in parallel into private group maps,
// a serial merge splices the per-morsel groups in morsel order, and the
// per-group sort+dedup passes fan out over the groups. The result is a
// pure function of the tuple set (each group is ID-sorted), so it is
// identical to the serial kernel's for any morsel schedule. It returns
// exactly GroupNeighbors(r, groupAttr, valueAttr).
func GroupNeighborsPar(ctx context.Context, pool *exec.Pool, budget int, r *Relation, groupAttr, valueAttr string) (map[tgm.NodeID][]tgm.NodeID, error) {
	if pool == nil || budget <= 1 || r.n <= MorselRows {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		return GroupNeighbors(r, groupAttr, valueAttr)
	}
	// Validate before fan-out so attribute errors surface once, not per
	// morsel.
	if r.AttrIndex(groupAttr) < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", groupAttr)
	}
	if r.AttrIndex(valueAttr) < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", valueAttr)
	}

	// Phase 1: each morsel collects its run's pairs into a private map.
	chunks := (r.n + MorselRows - 1) / MorselRows
	parts := make([]map[tgm.NodeID][]tgm.NodeID, chunks)
	if err := pool.MapRanges(ctx, r.n, MorselRows, budget, func(lo, hi int) error {
		m, err := groupPairs(r, groupAttr, valueAttr, lo, hi)
		if err != nil {
			return err
		}
		parts[lo/MorselRows] = m
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2 (serial): splice per-morsel groups in morsel order.
	out := parts[0]
	for _, part := range parts[1:] {
		for g, ids := range part {
			out[g] = append(out[g], ids...)
		}
	}

	// Phase 3: sort+dedup every group, fanned out over the group list
	// (shared with the streaming fold's finishing pass).
	if err := SortDedupGroups(ctx, pool, budget, out); err != nil {
		return nil, err
	}
	return out, nil
}

// prefixOffsets turns per-morsel output slices into disjoint output
// offsets, returning the offsets and the total length.
func prefixOffsets(parts [][]int32) (offs []int, total int) {
	offs = make([]int, len(parts))
	for m, p := range parts {
		offs[m] = total
		total += len(p)
	}
	return offs, total
}

// ctxErr reports a canceled or expired context (nil ctx = no error).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
