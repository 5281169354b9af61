package server

import (
	"context"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/etable"
	"repro/internal/session"
	"repro/internal/tgm"
	"repro/internal/value"
)

// This file is the state encoder: every state-bearing response (session
// create, ops, GET session, replay) is written straight from the
// session's current window, read through an etable.Cursor, into a
// pooled byte buffer — no etable.Result, no intermediate structs, no
// reflection. Rows and references are copies of label fragments
// encoded once per graph (frags.go); base cells are formatted in
// place. The bytes are exactly what encoding/json produced for the
// struct copy of the session's materialized window (field order,
// omitempty on id/value/refs/nextCursor, null for absent slices,
// HTML-safe string escapes); encode_test.go keeps those structs as the
// reference and checks the two against each other over generated
// graphs.
//
// The encoder runs while the session's entry lock is held, so an op and
// the state it returns are one atomic unit (see respondState).

// stateBufs recycles response buffers between requests. A buffer that
// grew past maxPooledStateBuf (an unpaged read of a huge table) is
// dropped instead of pooled, so one such response does not pin its
// size for the life of the process.
var stateBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledStateBuf = 4 << 20

// respondState is the one exit of every state-bearing route: under the
// session's entry lock it runs apply (nil for plain reads) and encodes
// the state apply left behind — so an op and the snapshot it returns
// are one atomic unit, and a concurrent request on the same session
// cannot interleave between them — then writes outside the lock. The
// status is committed only once encoding has succeeded; any failure
// goes out as its structured error envelope, and Content-Length is
// always set.
func (s *Server) respondState(ctx context.Context, w http.ResponseWriter, status int, e *sessionEntry, id int64, p page, apply func() error) {
	buf := stateBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledStateBuf {
			stateBufs.Put(buf)
		}
	}()
	var err error
	if *buf, err = s.applyAndEncode(ctx, (*buf)[:0], e, id, p, apply); err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(status)
	if _, err := w.Write(*buf); err != nil {
		s.logf("server: writing response: %v", err)
	}
}

// applyAndEncode is respondState's locked half. The entry lock is
// released by defer, so a panic in apply or the encoder (answered 500
// by ServeHTTP) leaves the session usable for its next request.
func (s *Server) applyAndEncode(ctx context.Context, dst []byte, e *sessionEntry, id int64, p page, apply func() error) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if apply != nil {
		if err := apply(); err != nil {
			return dst, err
		}
	}
	return s.appendState(ctx, dst, id, e.sess, p)
}

// appendState renders one consistent session snapshot, reading and
// encoding only the requested row window: the session hands over its
// current window (sorted view, visible columns, clamped rows) under its
// lock and the encoder reads just those rows, so the cost of a page
// does not scale with the table. Cursor requests are verified against
// the current presentation state (409 stale_cursor on mismatch — a
// cursor addresses the presentation of the state it was issued against,
// so a changed presentation invalidates it), and a nextCursor is issued
// whenever rows remain past the window.
//
// The caller holds the session's entry lock, so the history read and
// the window render observe the same state.
func (s *Server) appendState(ctx context.Context, dst []byte, id int64, sess *session.Session, p page) ([]byte, error) {
	entries, cursor := sess.Entries()
	if cursor < 0 {
		if p.cursor != nil {
			return dst, apiErr(http.StatusConflict, codeStaleCursor, "cursor refers to a closed table")
		}
		return appendStateJSON(dst, id, entries, cursor, nil, nil, "")
	}
	sig := presentationSig(entries[cursor])
	if p.cursor != nil {
		if p.cursor.Sig != sig {
			return dst, apiErr(http.StatusConflict, codeStaleCursor,
				"cursor was issued against a different table state")
		}
		p.offset, p.limit, p.hasLimit = p.cursor.Offset, p.cursor.Limit, true
	}
	// Effective window size: the explicit limit, else the server's
	// default page size, else the full table.
	limit := -1
	if p.hasLimit {
		limit = p.limit
	} else if s.opts.PageSize > 0 {
		limit = s.opts.PageSize
	}
	g := sess.Graph()
	err := sess.ReadWindow(ctx, p.offset, limit, func(w session.Window) error {
		next := ""
		if w.Hi < w.Pres.NumRows() && limit > 0 {
			// More rows follow: issue the opaque continuation cursor.
			next = encodeCursor(cursorToken{Offset: w.Hi, Limit: limit, Sig: sig})
		}
		var err error
		dst, err = appendStateJSON(dst, id, entries, cursor, &w, g, next)
		return err
	})
	return dst, err
}

// appendStateJSON appends the main/schema/history view payload: the
// pattern, the column layout, the window's rows (totalRows/offset
// support offset paging, nextCursor opaque-cursor paging), and the
// history with its cursor. w is nil while no table is open; columns
// and rows are then null, whereas an open table's rows are always an
// array, even for an empty window (limit 0, offset past the end). g is
// w's graph, whose label fragments the rows copy.
func appendStateJSON(dst []byte, id int64, entries []session.Entry, cursor int, w *session.Window, g *tgm.InstanceGraph, nextCursor string) ([]byte, error) {
	dst = append(dst, '{')
	if id != 0 {
		dst = append(dst, `"id":`...)
		dst = strconv.AppendInt(dst, id, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"pattern":`...)
	pattern := ""
	if cursor >= 0 {
		pattern = entries[cursor].Pattern.String()
	}
	dst = appendJSONString(dst, pattern)
	total, offset := 0, 0
	if w == nil {
		dst = append(dst, `,"columns":null,"rows":null`...)
	} else {
		total, offset = w.Pres.NumRows(), w.Lo
		dst = append(dst, `,"columns":`...)
		dst = appendColumns(dst, w.Columns)
		dst = append(dst, `,"rows":[`...)
		var err error
		if dst, err = appendRows(dst, w, g); err != nil {
			return dst, err
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"totalRows":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	dst = append(dst, `,"offset":`...)
	dst = strconv.AppendInt(dst, int64(offset), 10)
	if nextCursor != "" {
		dst = append(dst, `,"nextCursor":`...)
		dst = appendJSONString(dst, nextCursor)
	}
	dst = append(dst, `,"history":`...)
	if len(entries) == 0 {
		dst = append(dst, "null"...)
	} else {
		for i := range entries {
			dst = append(dst, sep(i))
			dst = append(dst, `{"action":`...)
			dst = appendJSONString(dst, entries[i].Action)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"cursor":`...)
	dst = strconv.AppendInt(dst, int64(cursor), 10)
	return append(dst, '}'), nil
}

// sep opens a JSON array before its first element and separates the
// later ones.
func sep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// appendColumns appends the column layout; like every slice the
// replaced struct encoding left nil, an empty layout (every column
// hidden) is null, not [].
func appendColumns(dst []byte, cols []etable.Column) []byte {
	if len(cols) == 0 {
		return append(dst, "null"...)
	}
	for i := range cols {
		dst = append(dst, sep(i))
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, cols[i].Name)
		dst = append(dst, `,"kind":`...)
		dst = appendJSONString(dst, cols[i].Kind.String())
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// maxStackCols is how many columns appendRows resolves without
// allocating; wider layouts allocate one slice per window.
const maxStackCols = 16

// appendRows appends the window's rows, read through a cursor over its
// visible columns. A row is {"node": plus the primary node's fragment;
// base cells carry their formatted value (omitted when empty),
// entity-reference cells their refs (omitted when none), each
// {"id": plus the referenced node's fragment, and every cell its
// reference count. A non-string base value is formatted straight into
// dst: its text (digits, sign, '.', 'e', NaN, ±Inf, true, false, NULL)
// is never empty and never needs escaping. The fragment tables are
// resolved once per window, before the cursor pins anything; a table
// build's fault or a failed adjacency load aborts the window.
func appendRows(dst []byte, w *session.Window, g *tgm.InstanceGraph) ([]byte, error) {
	if w.Lo == w.Hi {
		return dst, nil
	}
	prim, err := fragTableOf(g, w.Pres.PrimaryType().Name)
	if err != nil {
		return dst, err
	}
	// tabs[k] is visible column k's target fragments, nil for a base
	// column.
	var stack [maxStackCols]*fragTable
	tabs := stack[:0]
	if len(w.Columns) > maxStackCols {
		tabs = make([]*fragTable, 0, len(w.Columns))
	}
	for k := range w.Columns {
		var t *fragTable
		if w.Columns[k].Kind != etable.ColBase {
			if t, err = fragTableOf(g, w.Columns[k].TargetType); err != nil {
				return dst, err
			}
		}
		tabs = append(tabs, t)
	}
	c, err := w.Pres.Cursor(w.Lo, w.Hi, w.Visible)
	if err != nil {
		return dst, err
	}
	defer c.Close()
	cols := c.Columns()
	for r := 0; c.Next(); r++ {
		if r > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = append(dst, prim.frag(c.Node())...)
		dst = append(dst, `,"cells":`...)
		if len(cols) == 0 {
			dst = append(dst, "null}"...)
			continue
		}
		for k, ci := range cols {
			dst = append(dst, sep(k), '{')
			if tabs[k] == nil {
				if v := c.Value(ci); v.Kind() != value.KindString {
					dst = append(dst, `"value":"`...)
					dst = v.AppendFormat(dst)
					dst = append(dst, '"', ',')
				} else if s := v.AsString(); s != "" {
					dst = append(dst, `"value":`...)
					dst = appendJSONString(dst, s)
					dst = append(dst, ',')
				}
				dst = append(dst, `"count":0}`...)
				continue
			}
			ids := c.Refs(ci)
			if len(ids) > 0 {
				dst = append(dst, `"refs":`...)
				for ri, id := range ids {
					dst = append(dst, sep(ri))
					dst = append(dst, `{"id":`...)
					dst = append(dst, tabs[k].frag(id)...)
					dst = append(dst, '}')
				}
				dst = append(dst, ']', ',')
			}
			dst = append(dst, `"count":`...)
			dst = strconv.AppendInt(dst, int64(len(ids)), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']', '}')
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// Word-at-a-time escape scan. A byte needs the byte loop of
// appendJSONString when it is a control byte, ", \, <, >, & or ≥ 0x80
// (the start of a multi-byte rune, which may be U+2028/9 or invalid).
// hasLess and hasByte are the classic SWAR tests: a borrow can only
// start at a matching byte, so the lowest set bit of their result lies
// exactly in the first matching byte of the word (0 when none matches).
const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

func hasLess(w uint64, n byte) uint64 { return (w - lsb*uint64(n)) &^ w & msb }

func hasByte(w uint64, c byte) uint64 { return hasLess(w^(lsb*uint64(c)), 1) }

// escapeMask tests the first eight bytes of s, read little-endian (the
// eight byte loads combine into one 64-bit load): its lowest set bit
// lies in the first byte that needs the byte loop, and it is 0 when
// none does.
func escapeMask(s string) uint64 {
	_ = s[7]
	w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
	return w&msb | hasLess(w, ' ') | hasByte(w, '"') | hasByte(w, '\\') |
		hasByte(w, '<') | hasByte(w, '>') | hasByte(w, '&')
}

// cleanPrefix returns the length of the longest prefix of s that passes
// through unescaped, for len(s) ≥ 8, eight bytes at a time. A last
// partial word is tested as the final eight bytes of s: the bytes it
// shares with the previous word are clean, so they neither match nor
// borrow.
func cleanPrefix(s string) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		if m := escapeMask(s[i:]); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	if i < len(s) {
		t := len(s) - 8
		if m := escapeMask(s[t:]); m != 0 {
			return t + bits.TrailingZeros64(m)>>3
		}
	}
	return len(s)
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with HTML escaping on (its default): ", \ and the control bytes
// escaped (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as
// \u00XX, U+2028/U+2029 as \u2028/\u2029, and each invalid UTF-8 byte
// replaced by \ufffd. While eight or more bytes remain, clean runs are
// skipped a word at a time (cleanPrefix) straight to the next byte
// that needs the byte loop; shorter strings and tails go byte by byte.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if len(s)-i >= 8 {
			if i += cleanPrefix(s[i:]); i == len(s) {
				break
			}
		}
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
