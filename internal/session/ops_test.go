package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/etable"
	"repro/internal/ops"
	"repro/internal/testdb"
	"repro/internal/value"
)

// renderState flattens a session into a canonical string: pattern,
// sorted presentation, every visible cell, and the history. Two sessions
// with equal renderings are observably identical to any client.
func renderState(t *testing.T, s *Session) string {
	t.Helper()
	var b strings.Builder
	history, cursor := s.Entries()
	fmt.Fprintf(&b, "cursor=%d\n", cursor)
	for i, h := range history {
		fmt.Fprintf(&b, "h%d: %s | %s\n", i, h.Action, h.Pattern)
	}
	if cursor < 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "pattern: %s\n", s.Pattern())
	res, err := s.WindowCtx(context.Background(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Columns {
		fmt.Fprintf(&b, "col: %s (%s)\n", c.Name, c.Kind)
	}
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "row %d %q:", row.Node, row.Label)
		for ci := range res.Columns {
			cell := &row.Cells[ci]
			if res.Columns[ci].Kind == etable.ColBase {
				fmt.Fprintf(&b, " %s", cell.Value.Format())
			} else {
				fmt.Fprintf(&b, " [")
				for _, ref := range cell.Refs {
					fmt.Fprintf(&b, "%d:%s,", ref.ID, ref.Label)
				}
				fmt.Fprintf(&b, "]")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sessionsOverOneGraph builds n sessions over a single translation:
// node ids are only stable within one translated instance graph, so
// state comparisons across sessions require a shared graph (exactly the
// server's situation — every session of a server shares its TGDB).
func sessionsOverOneGraph(t testing.TB, n int) []*Session {
	t.Helper()
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Session, n)
	for i := range out {
		out[i] = New(res.Schema, res.Instance)
	}
	return out
}

// TestApplyEquivalence drives the same exploration twice — once through
// the imperative methods, once through Apply with explicit ops — and
// requires byte-identical rendered states at every step.
func TestApplyEquivalence(t *testing.T) {
	ss := sessionsOverOneGraph(t, 2)
	imp, dec := ss[0], ss[1]

	type step struct {
		name string
		impF func() error
		op   ops.Op
	}
	p1, ok := imp.Graph().FindNode("Papers", "id", value.Int(1))
	if !ok {
		t.Fatal("paper 1 missing")
	}
	steps := []step{
		{"open", func() error { return imp.Open("Papers") }, ops.Open("Papers")},
		{"filter", func() error { return imp.Filter("year > 2005") }, ops.Filter("year > 2005")},
		{"sort", func() error { return imp.SortBy(etable.SortSpec{Attr: "year", Desc: true}) }, ops.SortByAttr("year", true)},
		{"hide", func() error { return imp.HideColumn("page_start") }, ops.Hide("page_start")},
		{"show", func() error { return imp.ShowColumn("page_start") }, ops.Show("page_start")},
		{"revert", func() error { return imp.Revert(1) }, ops.Revert(1)},
		{"neighbor", func() error { return imp.FilterByNeighbor("Authors", "name = 'H. V. Jagadish'") },
			ops.FilterByNeighbor("Authors", "name = 'H. V. Jagadish'")},
		{"pivot", func() error { return imp.Pivot("Authors") }, ops.Pivot("Authors")},
		{"open2", func() error { return imp.Open("Papers") }, ops.Open("Papers")},
		{"seeall", func() error { return imp.Seeall(p1.ID, "Authors") }, ops.Seeall(int64(p1.ID), "Authors")},
		{"single", func() error { return imp.Single(p1.ID) }, ops.Single(int64(p1.ID))},
	}
	for _, s := range steps {
		if err := s.impF(); err != nil {
			t.Fatalf("%s (imperative): %v", s.name, err)
		}
		if err := dec.Apply(s.op); err != nil {
			t.Fatalf("%s (op): %v", s.name, err)
		}
		if got, want := renderState(t, dec), renderState(t, imp); got != want {
			t.Fatalf("%s: states diverge\nimperative:\n%s\nops:\n%s", s.name, want, got)
		}
	}
}

func TestApplyErrorCodes(t *testing.T) {
	s := newSession(t)
	// Validation failure: invalid_op, session untouched.
	err := s.Apply(ops.Open("Nope"))
	var oe *ops.Error
	if !errors.As(err, &oe) || oe.Code != ops.CodeInvalidOp {
		t.Fatalf("open Nope err = %v", err)
	}
	// State-dependent failure: op_failed.
	err = s.Apply(ops.Filter("year > 2000"))
	if !errors.As(err, &oe) || oe.Code != ops.CodeOpFailed {
		t.Fatalf("filter before open err = %v", err)
	}
	if h, _ := s.Entries(); len(h) != 0 {
		t.Error("failed ops left history entries")
	}
}

func TestApplyPipelineAtomic(t *testing.T) {
	s := newSession(t)
	if err := s.Apply(ops.Open("Papers")); err != nil {
		t.Fatal(err)
	}
	before := renderState(t, s)

	// Op 2 fails at apply time (no such column): nothing may stick.
	err := s.ApplyPipeline(ops.Pipeline{
		ops.Filter("year > 2005"),
		ops.Pivot("NoSuchColumn"),
		ops.Filter("year > 2010"),
	})
	var oe *ops.Error
	if !errors.As(err, &oe) || oe.Code != ops.CodeOpFailed || oe.OpIndex != 1 {
		t.Fatalf("err = %v", err)
	}
	if got := renderState(t, s); got != before {
		t.Errorf("failed pipeline mutated the session:\nbefore:\n%s\nafter:\n%s", before, got)
	}

	// A fully valid pipeline applies in order.
	if err := s.ApplyPipeline(ops.Pipeline{
		ops.Filter("year > 2005"),
		ops.Pivot("Authors"),
		ops.SortByCount("Papers", true),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.PrimaryType.Name != "Authors" {
		t.Errorf("primary = %s", res.PrimaryType.Name)
	}
	if h, _ := s.Entries(); len(h) != 4 {
		t.Errorf("history = %d", len(h))
	}
}

// TestApplyPipelineRollbackAfterRevert covers the subtle rollback case:
// the pipeline starts from a reverted cursor, so its pushes overwrite
// the redo suffix in the shared backing array — rollback must restore
// the overwritten entries too.
func TestApplyPipelineRollbackAfterRevert(t *testing.T) {
	s := newSession(t)
	for _, op := range []ops.Op{ops.Open("Papers"), ops.Filter("year > 2005"), ops.Filter("year < 2014")} {
		if err := s.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Apply(ops.Revert(0)); err != nil {
		t.Fatal(err)
	}
	before := renderState(t, s)

	err := s.ApplyPipeline(ops.Pipeline{ops.Filter("year = 2011"), ops.Pivot("NoSuchColumn")})
	if err == nil {
		t.Fatal("pipeline succeeded unexpectedly")
	}
	if got := renderState(t, s); got != before {
		t.Errorf("rollback lost the redo suffix:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	// The redo suffix must still be revertible-to.
	if err := s.Revert(2); err != nil {
		t.Fatalf("revert into restored suffix: %v", err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 { // year > 2005 AND year < 2014: all but the 2014 paper
		t.Errorf("rows after revert = %d", res.NumRows())
	}
}

// TestRevertEdgeCases exercises the satellite checklist: revert to 0,
// revert forward after branching, revert past a hidden-column entry, and
// memo consistency — through both the imperative path and Apply.
func TestRevertEdgeCases(t *testing.T) {
	for _, mode := range []string{"imperative", "ops"} {
		t.Run(mode, func(t *testing.T) {
			s := newSession(t)
			do := func(op ops.Op, viaMethod func() error) {
				t.Helper()
				var err error
				if mode == "ops" {
					err = s.Apply(op)
				} else {
					err = viaMethod()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			do(ops.Open("Papers"), func() error { return s.Open("Papers") })
			do(ops.Filter("year > 2005"), func() error { return s.Filter("year > 2005") })
			do(ops.Hide("page_start"), func() error { return s.HideColumn("page_start") })
			do(ops.Filter("year > 2010"), func() error { return s.Filter("year > 2010") })

			// Revert to 0: full table, all columns visible.
			do(ops.Revert(0), func() error { return s.Revert(0) })
			res, err := s.Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() != 6 || res.ColumnIndex("page_start") < 0 {
				t.Errorf("revert to 0: rows=%d page_start=%d", res.NumRows(), res.ColumnIndex("page_start"))
			}

			// Revert forward (redo) past the hidden-column entry.
			do(ops.Revert(3), func() error { return s.Revert(3) })
			res, err = s.Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() != 4 || res.ColumnIndex("page_start") >= 0 {
				t.Errorf("redo to 3: rows=%d page_start=%d", res.NumRows(), res.ColumnIndex("page_start"))
			}

			// Revert to the hidden-column entry itself (year > 2005
			// matches all 6 papers; only the hide distinguishes it).
			do(ops.Revert(2), func() error { return s.Revert(2) })
			res, err = s.Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() != 6 || res.ColumnIndex("page_start") >= 0 {
				t.Errorf("revert to 2: rows=%d page_start=%d", res.NumRows(), res.ColumnIndex("page_start"))
			}

			// Branch: a new action from entry 2 truncates entry 3.
			do(ops.Filter("year = 2011"), func() error { return s.Filter("year = 2011") })
			if h, _ := s.Entries(); len(h) != 4 {
				t.Fatalf("history after branch = %d", len(h))
			}
			if err := s.Revert(4); err == nil {
				t.Error("revert past truncated history accepted")
			}
			// Revert forward within the new branch still works.
			do(ops.Revert(3), func() error { return s.Revert(3) })
			res, err = s.Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() != 3 {
				t.Errorf("branch tip rows = %d", res.NumRows())
			}

			// Memo consistency: bouncing between presentation-identical
			// states renders the identical table, and states with
			// different presentations render their own.
			do(ops.Revert(0), func() error { return s.Revert(0) })
			r0a, _ := s.Result()
			do(ops.Revert(2), func() error { return s.Revert(2) })
			r2, _ := s.Result()
			do(ops.Revert(0), func() error { return s.Revert(0) })
			r0b, _ := s.Result()
			if renderWindow(r0a) != renderWindow(r0b) {
				t.Error("revert round trip renders a different table")
			}
			if renderWindow(r0a) == renderWindow(r2) {
				t.Error("distinct presentation states render one table")
			}
			if r2.ColumnIndex("page_start") >= 0 {
				t.Error("memoized hidden-column state shows the hidden column")
			}
		})
	}
}

// TestExportReplayGolden is the acceptance golden test: a session with
// filters, pivots, hides, branching reverts, and node-anchored ops
// exports a log whose replay on a fresh session reproduces the identical
// rendered state — and the log round-trips through JSON, as it does over
// /api/v1 history → replay.
func TestExportReplayGolden(t *testing.T) {
	ss := sessionsOverOneGraph(t, 3)
	s, fresh, dirty := ss[0], ss[1], ss[2]
	p1, _ := s.Graph().FindNode("Papers", "id", value.Int(1))
	script := ops.Pipeline{
		ops.Open("Papers"),
		ops.Filter("year > 2005"),
		ops.SortByAttr("year", true),
		ops.Hide("page_start"),
		ops.Pivot("Authors"),
		ops.Open("Papers"),
		ops.Seeall(int64(p1.ID), "Authors"),
		ops.Single(int64(p1.ID)),
	}
	for _, op := range script {
		if err := s.Apply(op); err != nil {
			t.Fatalf("%+v: %v", op, err)
		}
	}
	// Branch: revert, then a new action truncating the suffix.
	if err := s.Apply(ops.Revert(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(ops.Filter("year < 2014")); err != nil {
		t.Fatal(err)
	}
	// Leave the cursor mid-history.
	if err := s.Apply(ops.Revert(2)); err != nil {
		t.Fatal(err)
	}

	log := s.Export()
	if len(log.Ops) != 5 || log.Cursor != 2 {
		t.Fatalf("export = %d ops, cursor %d", len(log.Ops), log.Cursor)
	}
	// The log survives JSON round-tripping (the wire path).
	enc, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	var wire Log
	if err := json.Unmarshal(enc, &wire); err != nil {
		t.Fatal(err)
	}

	if err := fresh.Replay(wire); err != nil {
		t.Fatal(err)
	}
	if got, want := renderState(t, fresh), renderState(t, s); got != want {
		t.Errorf("replayed state differs\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Replay is also reset semantics: replaying onto a dirty session
	// discards its previous state first.
	if err := dirty.Apply(ops.Open("Conferences")); err != nil {
		t.Fatal(err)
	}
	if err := dirty.Replay(wire); err != nil {
		t.Fatal(err)
	}
	if got, want := renderState(t, dirty), renderState(t, s); got != want {
		t.Errorf("replay onto dirty session differs")
	}
}

func TestReplayRejectsBadLogs(t *testing.T) {
	s := newSession(t)
	if err := s.Apply(ops.Open("Papers")); err != nil {
		t.Fatal(err)
	}
	before := renderState(t, s)

	// Invalid op in the log: rejected before any state change.
	err := s.Replay(Log{Ops: []ops.Op{ops.Open("Nope")}, Cursor: 0})
	var oe *ops.Error
	if !errors.As(err, &oe) || oe.Code != ops.CodeInvalidOp {
		t.Errorf("bad-op replay err = %v", err)
	}
	// Out-of-range cursor.
	if err := s.Replay(Log{Ops: []ops.Op{ops.Open("Papers")}, Cursor: 5}); err == nil {
		t.Error("out-of-range cursor accepted")
	}
	// Apply-time failure mid-log.
	err = s.Replay(Log{Ops: []ops.Op{ops.Open("Papers"), ops.Pivot("NoSuch")}, Cursor: 1})
	if !errors.As(err, &oe) || oe.OpIndex != 1 {
		t.Errorf("mid-log failure err = %v", err)
	}
	if got := renderState(t, s); got != before {
		t.Error("failed replay mutated the session")
	}

	// Empty log with cursor -1 resets the session.
	if err := s.Replay(Log{Cursor: -1}); err != nil {
		t.Fatal(err)
	}
	if h, cur := s.Entries(); len(h) != 0 || cur != -1 {
		t.Error("empty-log replay did not reset")
	}
}
