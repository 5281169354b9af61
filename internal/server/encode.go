package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/etable"
	"repro/internal/session"
)

// This file is the state encoder: every state-bearing response (session
// create, ops, GET session, replay) is written straight
// from the session's *etable.Result into a pooled byte buffer — no
// intermediate structs, no reflection. The bytes are exactly what
// encoding/json produced for the struct copy this replaced (field
// order, omitempty on id/value/refs/nextCursor, null for absent slices,
// HTML-safe string escapes); encode_test.go keeps those structs as the
// reference and fuzzes the two against each other.
//
// The encoder runs while the session's entry lock is held. With window
// recycling on (see createSession) a Result is only valid until the
// next call on its session, so it must be fully read before the lock is
// released; the buffer, not the Result, is what outlives the lock.

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
	e.mu.Lock()
	var err error
	if apply != nil {
		err = apply()
	}
	if err == nil {
		*buf, err = s.appendState(ctx, (*buf)[:0], id, e.sess, p)
	}
	e.mu.Unlock()
	if err != nil {
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

// appendState renders one consistent session snapshot, materializing
// and encoding only the requested row window: the session's windowed
// presentation memo transforms just the requested rows, so the cost of
// a page does not scale with the table. Cursor requests are verified
// against the current presentation state (409 stale_cursor on mismatch
// — a cursor addresses the presentation of the state it was issued
// against, so a changed presentation invalidates it), and a nextCursor
// is issued whenever rows remain past the window.
//
// The caller holds the session's entry lock, so the history read and
// the window render observe the same state.
func (s *Server) appendState(ctx context.Context, dst []byte, id int64, sess *session.Session, p page) ([]byte, error) {
	entries, cursor := sess.Entries()
	if cursor < 0 {
		if p.cursor != nil {
			return dst, apiErr(http.StatusConflict, codeStaleCursor, "cursor refers to a closed table")
		}
		return appendStateJSON(dst, id, entries, cursor, nil, ""), nil
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
	res, err := sess.WindowCtx(ctx, p.offset, limit)
	if err != nil {
		return dst, err
	}
	next := ""
	if end := res.Offset + len(res.Rows); end < res.Total() && limit > 0 {
		// More rows follow: issue the opaque continuation cursor.
		next = encodeCursor(cursorToken{Offset: end, Limit: limit, Sig: sig})
	}
	return appendStateJSON(dst, id, entries, cursor, res, next), nil
}

// appendStateJSON appends the main/schema/history view payload: the
// pattern, the column layout, the window's rows (totalRows/offset
// support offset paging, nextCursor opaque-cursor paging), and the
// history with its cursor. res is nil while no table is open; columns
// and rows are then null, whereas an open table's rows are always an
// array, even for an empty window (limit 0, offset past the end).
func appendStateJSON(dst []byte, id int64, entries []session.Entry, cursor int, res *etable.Result, nextCursor string) []byte {
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
	if res == nil {
		dst = append(dst, `,"columns":null,"rows":null`...)
	} else {
		total, offset = res.Total(), res.Offset
		dst = append(dst, `,"columns":`...)
		dst = appendColumns(dst, res.Columns)
		dst = append(dst, `,"rows":[`...)
		for i := range res.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendRow(dst, res.Columns, &res.Rows[i])
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
	return append(dst, '}')
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

// appendRow appends one row: base cells carry their formatted value
// (omitted when empty), entity-reference cells their refs (omitted when
// none), and every cell its reference count.
func appendRow(dst []byte, cols []etable.Column, row *etable.Row) []byte {
	dst = append(dst, `{"node":`...)
	dst = strconv.AppendInt(dst, int64(row.Node), 10)
	dst = append(dst, `,"label":`...)
	dst = appendJSONString(dst, row.Label)
	dst = append(dst, `,"cells":`...)
	if len(cols) == 0 {
		return append(dst, "null}"...)
	}
	for ci := range cols {
		cell := &row.Cells[ci]
		dst = append(dst, sep(ci), '{')
		if cols[ci].Kind == etable.ColBase {
			if v := cell.Value.Format(); v != "" {
				dst = append(dst, `"value":`...)
				dst = appendJSONString(dst, v)
				dst = append(dst, ',')
			}
		} else if len(cell.Refs) > 0 {
			dst = append(dst, `"refs":`...)
			for ri := range cell.Refs {
				dst = append(dst, sep(ri))
				dst = append(dst, `{"id":`...)
				dst = strconv.AppendInt(dst, int64(cell.Refs[ri].ID), 10)
				dst = append(dst, `,"label":`...)
				dst = appendJSONString(dst, cell.Refs[ri].Label)
				dst = append(dst, '}')
			}
			dst = append(dst, ']', ',')
		}
		dst = append(dst, `"count":`...)
		dst = strconv.AppendInt(dst, int64(cell.Count()), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with HTML escaping on (its default): ", \ and the control bytes
// escaped (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as
// \u00XX, U+2028/U+2029 as \u2028/\u2029, and each invalid UTF-8 byte
// replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
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
