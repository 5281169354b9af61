package graphrel

import (
	"fmt"

	"repro/internal/tgm"
)

// MorselRows is the fixed morsel size of the parallel kernels: input
// relations are chunked into runs of this many rows, and worker
// goroutines claim morsels from a shared counter. The value balances
// scheduling overhead (too small → counter contention and per-morsel
// bookkeeping dominate) against load skew (too large → one heavy morsel
// idles the other workers); 2048 rows of a 4-byte-ID column is 8 KiB
// per attribute, comfortably cache-resident.
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

// slice returns the zero-copy row window [lo, hi) of r: every column is
// re-sliced, no IDs are copied. The window shares r's arena, which is
// safe under the package's immutability contract.
func (r *Relation) slice(lo, hi int) *Relation {
	out := &Relation{g: r.g, Attrs: r.Attrs, n: hi - lo, cols: make([][]tgm.NodeID, len(r.cols))}
	for c, col := range r.cols {
		out.cols[c] = col[lo:hi:hi]
	}
	return out
}

// Concat splices relations with identical attribute lists into one
// relation backed by a fresh arena, preserving part order then row
// order. All parts must come from the same instance graph and agree on
// attribute names and types.
func Concat(parts ...*Relation) (*Relation, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("graphrel: Concat of no relations")
	}
	first := parts[0]
	total := first.n
	for _, p := range parts[1:] {
		if p.g != first.g {
			return nil, fmt.Errorf("graphrel: Concat across different graphs")
		}
		if len(p.Attrs) != len(first.Attrs) {
			return nil, fmt.Errorf("graphrel: Concat attr count mismatch (%d vs %d)",
				len(p.Attrs), len(first.Attrs))
		}
		for i := range p.Attrs {
			if p.Attrs[i] != first.Attrs[i] {
				return nil, fmt.Errorf("graphrel: Concat attr %d mismatch (%q vs %q)",
					i, p.Attrs[i].Name, first.Attrs[i].Name)
			}
		}
		total += p.n
	}
	out := newRelation(first.g, first.Attrs, total)
	off := 0
	for _, p := range parts {
		for c, col := range p.cols {
			copy(out.cols[c][off:off+p.n], col)
		}
		off += p.n
	}
	return out, nil
}
