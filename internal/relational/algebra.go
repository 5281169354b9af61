package relational

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/value"
)

// Select returns the rows of r satisfying cond (σ). A nil condition
// returns r unchanged.
func Select(r *Rel, cond expr.Expr) (*Rel, error) {
	if cond == nil {
		return r, nil
	}
	out := &Rel{Cols: r.Cols}
	for _, row := range r.Rows {
		ok, err := expr.Truthy(cond, r.Env(row))
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// AppendKey appends v's canonical key to dst, length-prefixed. A plain
// separator byte is not enough: value keys can contain any byte
// (including a 0x1f inside a string value), which made distinct rows
// collide under the old separator scheme. The 4-byte little-endian
// length prefix makes component boundaries unambiguous.
func AppendKey(dst []byte, v value.V) []byte {
	k := v.Key()
	n := len(k)
	dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	return append(dst, k...)
}

// RowKey returns a collision-free identity key for a whole row: the
// AppendKey encoding that GroupBy and the primary-key index also build
// over their key values, here over every column (DISTINCT projection).
func RowKey(row Row) string {
	b := make([]byte, 0, 16*len(row))
	for _, v := range row {
		b = AppendKey(b, v)
	}
	return string(b)
}

// EquiJoin joins l and r on l.leftCol = r.rightCol using a hash join.
// Column sets are concatenated (l's columns first).
func EquiJoin(l, r *Rel, leftCol, rightCol string) (*Rel, error) {
	li := l.ColIndex(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("relational: join: left has no column %q", leftCol)
	}
	ri := r.ColIndex(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("relational: join: right has no column %q", rightCol)
	}
	out := &Rel{Cols: append(append([]ColRef{}, l.Cols...), r.Cols...)}
	// Build on the smaller side, keyed by the shared AppendKey encoding.
	var kb []byte
	if len(l.Rows) <= len(r.Rows) {
		build := make(map[string][]Row, len(l.Rows))
		for _, lr := range l.Rows {
			if lr[li].IsNull() {
				continue
			}
			kb = AppendKey(kb[:0], lr[li])
			build[string(kb)] = append(build[string(kb)], lr)
		}
		for _, rr := range r.Rows {
			if rr[ri].IsNull() {
				continue
			}
			kb = AppendKey(kb[:0], rr[ri])
			for _, lr := range build[string(kb)] {
				out.Rows = append(out.Rows, concatRows(lr, rr))
			}
		}
	} else {
		build := make(map[string][]Row, len(r.Rows))
		for _, rr := range r.Rows {
			if rr[ri].IsNull() {
				continue
			}
			kb = AppendKey(kb[:0], rr[ri])
			build[string(kb)] = append(build[string(kb)], rr)
		}
		for _, lr := range l.Rows {
			if lr[li].IsNull() {
				continue
			}
			kb = AppendKey(kb[:0], lr[li])
			for _, rr := range build[string(kb)] {
				out.Rows = append(out.Rows, concatRows(lr, rr))
			}
		}
	}
	return out, nil
}

func concatRows(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// ThetaJoin joins l and r on an arbitrary condition with a nested-loop
// join. Prefer EquiJoin when the condition is a single equality.
func ThetaJoin(l, r *Rel, cond expr.Expr) (*Rel, error) {
	out := &Rel{Cols: append(append([]ColRef{}, l.Cols...), r.Cols...)}
	for _, lr := range l.Rows {
		for _, rr := range r.Rows {
			joined := concatRows(lr, rr)
			if cond != nil {
				ok, err := expr.Truthy(cond, out.Env(joined))
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out.Rows = append(out.Rows, joined)
		}
	}
	return out, nil
}

// CrossJoin is ThetaJoin with no condition.
func CrossJoin(l, r *Rel) *Rel {
	out, _ := ThetaJoin(l, r, nil)
	return out
}

// Limit returns at most n rows starting at offset. The row slice is
// copied so that appending to or reordering the returned relation cannot
// write through into the parent's Rows (the individual Row value slices
// are still shared, as everywhere in the algebra).
func Limit(r *Rel, offset, n int) *Rel {
	if offset < 0 {
		offset = 0
	}
	if offset >= len(r.Rows) {
		return &Rel{Cols: r.Cols}
	}
	end := len(r.Rows)
	if n >= 0 && offset+n < end {
		end = offset + n
	}
	rows := make([]Row, end-offset)
	copy(rows, r.Rows[offset:end])
	return &Rel{Cols: r.Cols, Rows: rows}
}

// Rename changes the table qualifier of every column (aliasing).
func Rename(r *Rel, alias string) *Rel {
	cols := make([]ColRef, len(r.Cols))
	for i, c := range r.Cols {
		cols[i] = ColRef{Table: alias, Name: c.Name}
	}
	return &Rel{Cols: cols, Rows: r.Rows}
}
