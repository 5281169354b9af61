package etable

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// The sort oracle: a fully materialized Result ordered the obvious way —
// sort.SliceStable over rows, every comparison a value.Compare of two
// rendered cells. No non-test code sorts a Result (the serving path
// orders a Presentation's row IDs and windows afterwards, see sort.go);
// these methods survive as the reference the sort kernel's permutation
// is checked against.

// sortKey resolves spec against the result's columns and returns the
// per-row sort key extractor. It touches only column metadata, never
// rows, so ValidateSort can share it without materializing anything.
func (r *Result) sortKey(spec SortSpec) (func(row *Row) value.V, error) {
	switch {
	case spec.Attr != "":
		ci := -1
		for i := range r.Columns {
			if r.Columns[i].Kind == ColBase && r.Columns[i].Attr == spec.Attr {
				ci = i
				break
			}
		}
		if ci < 0 {
			return nil, fmt.Errorf("etable: no base attribute %q to sort by", spec.Attr)
		}
		return func(row *Row) value.V { return row.Cells[ci].Value }, nil
	case spec.Column != "":
		ci := r.ColumnIndex(spec.Column)
		if ci < 0 || !r.Columns[ci].IsEntityRef() {
			return nil, fmt.Errorf("etable: no entity-reference column %q to sort by", spec.Column)
		}
		return func(row *Row) value.V { return value.Int(int64(len(row.Cells[ci].Refs))) }, nil
	default:
		return nil, fmt.Errorf("etable: empty sort specification")
	}
}

// ValidateSort reports whether spec can sort this result. It resolves
// the spec against the columns only — no rows are copied or reordered.
func (r *Result) ValidateSort(spec SortSpec) error {
	_, err := r.sortKey(spec)
	return err
}

// Sort reorders the result's rows in place per spec. The sort is stable.
func (r *Result) Sort(spec SortSpec) error {
	key, err := r.sortKey(spec)
	if err != nil {
		return err
	}
	sort.SliceStable(r.Rows, func(i, j int) bool {
		d := value.Compare(key(&r.Rows[i]), key(&r.Rows[j]))
		if spec.Desc {
			return d > 0
		}
		return d < 0
	})
	return nil
}
