package graphrel

import "context"

// The parallel kernel: SelectSet (graphrel.go) is morsel-driven. It
// chunks its input IDs into MorselRows-ID morsels and fans them out to
// a shared exec.Pool under a per-query budget; every morsel filters
// into its own private keep list — no sharing, no locks — and the kept
// members' bits are then set morsel by morsel, so the set does not
// depend on the split. Cancellation is checked between morsels
// (exec.Pool.Map), so an abandoned request stops a scan mid-flight
// with ctx.Err(). The kernel runs serially when the input is a single
// morsel, the budget is <= 1, or the pool is nil — tiny interactive
// queries never pay the fan-out overhead. SelectSet is the only kernel
// that fans out: the semi-join kernels (semijoin.go) — Reduce, Path
// and Enumerate — run serial.

// ctxErr reports a canceled or expired context (nil ctx = no error).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
