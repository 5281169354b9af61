package graphrel

// MorselRows is the fixed morsel size of the parallel kernel
// (SelectSet): its input IDs are chunked into runs of this many, and
// worker goroutines claim morsels from a shared counter. The value
// balances scheduling overhead (too small → counter contention and
// per-morsel bookkeeping dominate) against load skew (too large → one
// heavy morsel idles the other workers); 2048 4-byte IDs are 8 KiB,
// comfortably cache-resident.
const MorselRows = 2048

// morselBounds splits [0, n) into contiguous runs of at most size rows.
// It returns nil for n <= 0.
func morselBounds(n, size int) [][2]int {
	if n <= 0 || size <= 0 {
		return nil
	}
	out := make([][2]int, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
