package server

// The versioned /api/v1 surface: sessions are driven by the declarative
// operation protocol of internal/ops. One POST to .../ops applies a
// single op or an atomic batch pipeline and returns one state snapshot;
// GET .../history exports the session as a replayable operation log, and
// POST .../replay rebuilds a session from such a log — which is how
// clients survive server-side session eviction. docs/API.md documents
// every route with examples.

import (
	"net/http"

	"repro/internal/ops"
	"repro/internal/session"
)

// handleV1Ops applies a single op ({"op": "filter", ...}) or a batch
// pipeline ([{...}, {...}]) atomically, returning one state snapshot.
// Validation failures are 400 invalid_op before any op applies; a
// state-dependent failure is 422 op_failed with the op's index, and the
// session is left exactly as it was.
func (s *Server) handleV1Ops(w http.ResponseWriter, r *http.Request) {
	e, id, err := s.entry(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	pl, err := ops.DecodePipeline(body)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	p, err := pageFromQuery(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if p.cursor != nil {
		// A continuation cursor is bound to the pre-op table state, so
		// it could only ever fail the staleness check — after the batch
		// had already committed. Reject it before anything applies.
		s.writeErr(w, apiErr(http.StatusBadRequest, codeBadPage,
			"cursor cannot page an op response; use offset/limit"))
		return
	}
	ctx := r.Context()
	// Single ops go through the pipeline path too, so every failure
	// envelope carries its op_index (0 for a single op).
	s.respondState(ctx, w, http.StatusOK, e, id, p, func() error { return e.sess.ApplyPipelineCtx(ctx, pl) })
}

// historyEntryJSON is one history item of the v1 history payload.
type historyEntryJSON struct {
	Action  string `json:"action"`
	Pattern string `json:"pattern"`
	Op      ops.Op `json:"op"`
}

// historyJSON is the GET .../history payload. Ops+Cursor form the
// replayable operation log — the exact body POST .../replay accepts.
type historyJSON struct {
	ID      int64              `json:"id"`
	Entries []historyEntryJSON `json:"entries"`
	Ops     []ops.Op           `json:"ops"`
	Cursor  int                `json:"cursor"`
}

// handleV1History exports the session's history as both human-readable
// entries and the replayable operation log.
func (s *Server) handleV1History(w http.ResponseWriter, r *http.Request) {
	e, id, err := s.entry(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	entries, cursor := e.sess.Entries()
	out := historyJSON{ID: id, Cursor: cursor, Ops: make([]ops.Op, len(entries)),
		Entries: make([]historyEntryJSON, len(entries))}
	for i, h := range entries {
		out.Ops[i] = h.Op
		out.Entries[i] = historyEntryJSON{Action: h.Action, Pattern: h.Pattern.String(), Op: h.Op}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleV1Replay resets the session and re-executes an exported
// operation log ({"ops": [...], "cursor": n}). On any failure the
// session keeps its previous state.
func (s *Server) handleV1Replay(w http.ResponseWriter, r *http.Request) {
	e, id, err := s.entry(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	var log session.Log
	if err := strictDecode(body, &log); err != nil {
		s.writeErr(w, err)
		return
	}
	ctx := r.Context()
	s.respondState(ctx, w, http.StatusOK, e, id, page{}, func() error { return e.sess.ReplayCtx(ctx, log) })
}
