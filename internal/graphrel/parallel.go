package graphrel

import "context"

// The parallel kernel: Select (graphrel.go) is morsel-driven. It chunks
// its input into MorselRows-row morsels, fans the morsels out to a
// shared exec.Pool under a per-query budget, and splices the per-morsel
// outputs into one result without taking any lock on the hot path:
//
//   - phase 1 (parallel): every morsel filters into its own private
//     keep list — no sharing, no locks;
//   - phase 2 (serial, O(#morsels)): prefix-sum the per-morsel counts
//     into disjoint output offsets;
//   - phase 3 (parallel): every morsel gathers its rows into its own
//     disjoint window of the output arena — disjoint writes, no locks.
//
// The output is row-for-row identical to a serial run, not merely
// set-equal: morsels are contiguous input runs and are spliced in input
// order, and the serial run is the same per-range phase (selectRange)
// over [0, n). Cancellation is checked between morsels (exec.Pool.Map),
// so an abandoned request stops a scan mid-flight with ctx.Err(). The
// kernel runs serially when the input is a single morsel, the budget is
// <= 1, or the pool is nil — tiny interactive queries never pay the
// fan-out overhead. Joins fan out per batch inside StreamJoin's stage
// (stream.go); the grouping kernels (group.go) run serial.

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
