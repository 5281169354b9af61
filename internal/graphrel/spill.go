package graphrel

// SpillPolicy is the server's spill configuration (-spill-dir). A
// prepare stores no cell, so nothing it holds grows with |m(Q)| and
// nothing spills: a non-nil policy only means that a prepare past the
// row cap is served instead of failing with RowLimitError. It stays
// until the spill flags go.
type SpillPolicy struct {
	// Dir is the spill directory; "" uses the system temp directory.
	Dir string
}
