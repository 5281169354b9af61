package graphrel

import "context"

// MorselRows is the morsel size of the selection (SelectSet): its
// input IDs are scanned in runs of this many on the caller's
// goroutine, and the context is checked before each run, so an
// abandoned request stops a scan within one morsel. 2048 4-byte IDs
// are 8 KiB, so a morsel's IDs and keep list stay cache-resident.
const MorselRows = 2048

// ctxErr reports a canceled or expired context (nil ctx = no error).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
