package value

import (
	"fmt"
	"math"
	"strings"
)

// MaxBlob is the most string bytes one Column addresses: a STRING row
// stores its offset and its length in 32 bits each.
const MaxBlob = math.MaxUint32

// Column is one attribute's values, row-aligned, in a layout with no
// pointer per row: 9 bytes a row and one string for every STRING row
// together.
//
//   - kinds[i] is row i's Kind;
//   - nums[i] holds the row's payload: an INT's bits, a FLOAT's exact
//     bits (NaN payloads and −0 included), a BOOL's 0/1, or a STRING's
//     offset<<32 | length within blob; 0 for NULL;
//   - blob holds every STRING row's bytes.
//
// Mixed-kind and NULL columns use the same layout. At rebuilds the exact
// V a row was built from. A Column is immutable and safe for concurrent
// reads; the zero Column has no rows. A string read from a column is a
// slice of blob and keeps the whole blob reachable: a caller that keeps
// one past the column's life clones it (V.Clone).
type Column struct {
	kinds []Kind
	nums  []uint64
	blob  string
}

// NewColumn returns the column of vals. It panics if the STRING values
// hold more than MaxBlob bytes together.
func NewColumn(vals []V) Column {
	var b Builder
	for _, v := range vals {
		b.Append(v)
	}
	return b.Column()
}

// MakeColumn returns the column of the given parts (see Column), which
// it takes over: the caller must not modify kinds or nums afterwards. It
// checks every row — a known kind, a STRING's bytes inside blob, a BOOL
// word of 0 or 1, a NULL word of 0 — so a column's rows are well formed
// however it was built.
func MakeColumn(kinds []Kind, nums []uint64, blob string) (Column, error) {
	if len(kinds) != len(nums) {
		return Column{}, fmt.Errorf("value: %d kinds for %d payload words", len(kinds), len(nums))
	}
	for i, k := range kinds {
		n := nums[i]
		switch {
		case k == KindInt || k == KindFloat:
		case k == KindString && n>>32+n&math.MaxUint32 <= uint64(len(blob)):
		case k == KindBool && n <= 1, k == KindNull && n == 0:
		default:
			return Column{}, fmt.Errorf("value: row %d: %v payload word %#x does not fit a blob of %d bytes", i, k, n, len(blob))
		}
	}
	return Column{kinds: kinds, nums: nums, blob: blob}, nil
}

// Len returns the number of rows.
func (c Column) Len() int { return len(c.kinds) }

// Kind returns row i's kind.
func (c Column) Kind(i int) Kind { return c.kinds[i] }

// At returns row i's value.
func (c Column) At(i int) V {
	n := c.nums[i]
	switch k := c.kinds[i]; k {
	case KindInt, KindBool:
		return V{kind: k, i: int64(n)}
	case KindFloat:
		return V{kind: KindFloat, f: math.Float64frombits(n)}
	case KindString:
		return V{kind: KindString, s: c.blob[n>>32 : n>>32+n&math.MaxUint32]}
	}
	return Null
}

// Str returns row i's string, which must be a STRING row.
func (c Column) Str(i int) string {
	n := c.nums[i]
	return c.blob[n>>32 : n>>32+n&math.MaxUint32]
}

// Kinds returns the kind of every row. The slice must not be modified.
func (c Column) Kinds() []Kind { return c.kinds }

// Nums returns every row's payload word (see Column). The slice must
// not be modified.
func (c Column) Nums() []uint64 { return c.nums }

// Uniform reports whether every row has kind k; an empty column is
// uniform in every kind.
func (c Column) Uniform(k Kind) bool {
	for _, x := range c.kinds {
		if x != k {
			return false
		}
	}
	return true
}

// Bytes returns the column's resident size: 9 bytes a row plus the
// blob.
func (c Column) Bytes() int64 { return int64(len(c.kinds) + 8*len(c.nums) + len(c.blob)) }

// Builder appends rows to a Column in amortized constant time, its
// strings into one growing blob. Column returns the rows so far; a
// column returned earlier stays valid and unchanged as more rows are
// appended. The zero Builder is empty and ready to use; a Builder must
// not be copied after first use.
type Builder struct {
	kinds []Kind
	nums  []uint64
	blob  strings.Builder
}

// BlobLen returns the string bytes appended so far. Append panics
// rather than take it past MaxBlob; callers check against it first.
func (b *Builder) BlobLen() int { return b.blob.Len() }

// Append appends v.
func (b *Builder) Append(v V) {
	var n uint64
	switch v.kind {
	case KindInt, KindBool:
		n = uint64(v.i)
	case KindFloat:
		n = math.Float64bits(v.f)
	case KindString:
		off := b.blob.Len()
		if uint64(len(v.s)) > MaxBlob-uint64(off) {
			panic("value: column string blob past 4 GiB")
		}
		n = uint64(off)<<32 | uint64(len(v.s))
		b.blob.WriteString(v.s)
	}
	b.kinds = append(b.kinds, v.kind)
	b.nums = append(b.nums, n)
}

// Column returns the rows appended so far.
func (b *Builder) Column() Column {
	return Column{kinds: b.kinds, nums: b.nums, blob: b.blob.String()}
}
