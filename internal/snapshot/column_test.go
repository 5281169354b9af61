package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// FuzzDecodeColumn holds the column decoder to its contract over
// arbitrary bytes: a payload either decodes to a column of the given
// row count that re-encodes to exactly the same bytes, or fails with a
// *CorruptError; it never panics. The seed corpus (testdata/fuzz)
// covers every kind, NaN/±Inf/−0 floats, empty and invalid-UTF-8
// strings, and each rejection: a truncated varint, an oversize string
// length, an unknown kind and trailing bytes.
func FuzzDecodeColumn(f *testing.F) {
	f.Fuzz(func(t *testing.T, rows uint16, payload []byte) {
		col, err := decodeColumn(payload, int(rows), "T", 0)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T) is not a *CorruptError", err, err)
			}
			return
		}
		if col.Len() != int(rows) {
			t.Fatalf("decoded %d rows, want %d", col.Len(), rows)
		}
		e := &enc{}
		encodeColumn(e, col)
		if !bytes.Equal(e.buf, payload) {
			t.Fatalf("re-encoded %x, decoded from %x", e.buf, payload)
		}
		for i := 0; i < col.Len(); i++ {
			if v := col.At(i); v.Kind() != col.Kind(i) {
				t.Fatalf("row %d: At is %v, kind %v", i, v.Kind(), col.Kind(i))
			}
		}
	})
}

// TestDecodeColumnKeepsEveryValue: a column of every kind and edge
// value — NaN with a payload, ±Inf, −0, the int64 extremes, empty,
// invalid-UTF-8 and multi-byte strings — survives encode and decode
// bit for bit, and At rebuilds each value exactly.
func TestDecodeColumnKeepsEveryValue(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000123)
	vals := []value.V{
		value.Null, value.Int(0), value.Int(math.MinInt64), value.Int(math.MaxInt64),
		value.Float(nan), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
		value.Float(math.Copysign(0, -1)), value.Float(2.5), value.Str(""), value.Str("\xff\xfe"),
		value.Str("Zoë ✓"), value.Bool(true), value.Bool(false), value.Null, value.Str("tail"),
	}
	e := &enc{}
	encodeColumn(e, value.NewColumn(vals))
	col, err := decodeColumn(e.buf, len(vals), "T", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		got := col.At(i)
		if got.Kind() != want.Kind() || got.Format() != want.Format() ||
			math.Float64bits(got.AsFloat()) != math.Float64bits(want.AsFloat()) {
			t.Errorf("row %d: got %v (%v), want %v (%v)", i, got, got.Kind(), want, want.Kind())
		}
	}
	// The blob is the payload's span from the first string to the last.
	if got, lo, hi := col.Bytes(), 9*len(vals)+len("\xff\xfe")+len("Zoë ✓")+len("tail"), 9*len(vals)+len(e.buf); got < int64(lo) || got > int64(hi) {
		t.Errorf("Bytes = %d, want within [%d, %d]", got, lo, hi)
	}
}

// TestDecodeColumnRejects: each malformed payload is a *CorruptError —
// including the two encodings a re-encode could not reproduce, a
// padded varint and a BOOL byte other than 0 or 1.
func TestDecodeColumnRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rows    int
		payload []byte
	}{
		{"short tag array", 3, []byte{1, 1}},
		{"truncated varint", 1, []byte{byte(value.KindInt), 0x80}},
		{"padded varint", 1, []byte{byte(value.KindInt), 0x82, 0x00}},
		{"truncated float", 1, []byte{byte(value.KindFloat), 1, 2, 3}},
		{"oversize string length", 1, []byte{byte(value.KindString), 100, 'a', 'b'}},
		{"unknown kind", 1, []byte{9}},
		{"bool byte 2", 1, []byte{byte(value.KindBool), 2}},
		{"trailing bytes", 1, []byte{byte(value.KindNull), 0}},
	} {
		_, err := decodeColumn(tc.payload, tc.rows, "T", 0)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want a *CorruptError", tc.name, err)
		}
	}
}

// TestDecodeColumnAllocs: a fault allocates a constant number of
// objects — the kinds, the words and one string blob — whatever the
// number of string rows.
func TestDecodeColumnAllocs(t *testing.T) {
	var counts []float64
	for _, rows := range []int{100, 10000} {
		payload := columnPayload(rand.New(rand.NewSource(1)), value.KindString, rows)
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, err := decodeColumn(payload, rows, "T", 0); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] > 4 {
		t.Fatalf("decoding 100 and 10,000 string rows allocates %v and %v objects, want one constant ≤ 4", counts[0], counts[1])
	}
}

// columnPayload writes the NCOL payload of a rows-row column by hand,
// tag array then payloads, so the benchmark reads the format's bytes
// and not an encoder's. Values follow the 38,000-paper corpus: INTs are
// page numbers (Papers.page_start, 1–1,400), STRINGs titles of about 50
// bytes. kind KindNull asks for a mixed column: INT, NULL, STRING,
// FLOAT and BOOL rows in turn.
func columnPayload(rng *rand.Rand, kind value.Kind, rows int) []byte {
	mixed := []value.Kind{value.KindInt, value.KindNull, value.KindString, value.KindFloat, value.KindBool}
	kinds := make([]value.Kind, rows)
	buf := make([]byte, 0, rows)
	for i := range kinds {
		kinds[i] = kind
		if kind == value.KindNull {
			kinds[i] = mixed[i%len(mixed)]
		}
		buf = append(buf, byte(kinds[i]))
	}
	for i, k := range kinds {
		switch k {
		case value.KindInt:
			buf = binary.AppendVarint(buf, 1+rng.Int63n(1400))
		case value.KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rng.NormFloat64()*1e3))
		case value.KindString:
			s := fmt.Sprintf("Interactive browsing %d for relational data (part %d)", rng.Intn(1e4), i)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		case value.KindBool:
			buf = append(buf, byte(rng.Intn(2)))
		}
	}
	return buf
}

// BenchmarkColumnFault measures the decode half of a pager fault: one
// 38,000-row column (the corpus's Papers) of each kind, from its NCOL
// bytes to the in-memory column. The checksum and file read are left
// out; they do not depend on the in-memory layout.
func BenchmarkColumnFault(b *testing.B) {
	const rows = 38000
	for _, arm := range []struct {
		name string
		kind value.Kind
	}{{"int", value.KindInt}, {"float", value.KindFloat}, {"string", value.KindString}, {"mixed_null", value.KindNull}} {
		payload := columnPayload(rand.New(rand.NewSource(1)), arm.kind, rows)
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeColumn(payload, rows, "Papers", 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
