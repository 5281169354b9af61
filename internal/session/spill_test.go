package session

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/etable"
	"repro/internal/graphrel"
	"repro/internal/lru"
	"repro/internal/pager"
	"repro/internal/spill"
	"repro/internal/testdb"
	"repro/internal/tgm"
	"repro/internal/value"
)

// spillSession builds a session over the Figure 3 corpus whose every
// result larger than trigger rows spills to named run files in a
// per-test directory (named so tests can corrupt and count them).
func spillSession(t testing.TB, trigger int) (*Session, *graphrel.SpillPolicy) {
	t.Helper()
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	s := New(res.Schema, res.Instance)
	pol := &graphrel.SpillPolicy{
		Dir:     t.TempDir(),
		Pool:    lru.New[pager.Key, [][]tgm.NodeID](4),
		Metrics: &spill.Metrics{},
		Named:   true,
		RunRows: 2,
	}
	s.SetMaxRows(trigger)
	s.SetSpill(pol)
	return s, pol
}

// renderWindow serializes one windowed result canonically so spilled
// and heap sessions can be compared byte for byte.
func renderWindow(res *etable.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total=%d offset=%d\n", res.Total(), res.Offset)
	for _, c := range res.Columns {
		fmt.Fprintf(&sb, "col|%d|%s\n", c.Kind, c.Name)
	}
	for _, row := range res.Rows {
		fmt.Fprintf(&sb, "row|%d|%s", row.Node, row.Label)
		for ci := range res.Columns {
			cell := &row.Cells[ci]
			sb.WriteString("|")
			if res.Columns[ci].Kind == etable.ColBase {
				sb.WriteString(cell.Value.Format())
			} else {
				for _, ref := range cell.Refs {
					fmt.Fprintf(&sb, "%d:%s;", ref.ID, ref.Label)
				}
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// runFiles lists the named spill run files currently in dir.
func runFiles(t testing.TB, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "etspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestSessionSpillEquivalence drives one spilled and one unbounded
// session through the same interaction — open, sort, hide, seeall —
// and asserts every rendered window is identical. The spilled session
// pages in windows at most trigger rows wide (the pre-window guard
// still caps single reads); the plain session renders the same
// windows from the heap.
func TestSessionSpillEquivalence(t *testing.T) {
	spilled, pol := spillSession(t, 2)
	plain := newSession(t)
	ctx := context.Background()

	// The pivot to Authors adds the join whose pair count crosses the
	// 2-row trigger; the joinless open stays on the heap by design (no
	// join, no amplification — the pre-window guard alone caps reads).
	steps := []struct {
		name  string
		apply func(s *Session) error
	}{
		{"open", func(s *Session) error { return s.Open("Papers") }},
		{"pivot", func(s *Session) error { return s.Pivot("Authors") }},
		{"sort", func(s *Session) error { return s.SortBy(etable.SortSpec{Attr: "name", Desc: true}) }},
		{"hide", func(s *Session) error { return s.HideColumn("id") }},
		{"seeall", func(s *Session) error {
			a, ok := s.Graph().FindNode("Authors", "name", value.Str("Arnab Nandi"))
			if !ok {
				return fmt.Errorf("author missing")
			}
			return s.Seeall(a.ID, "Papers")
		}},
	}
	for _, step := range steps {
		for _, s := range []*Session{spilled, plain} {
			if err := step.apply(s); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}
		meta, err := spilled.WindowCtx(ctx, 0, 0)
		if err != nil {
			t.Fatalf("%s: window metadata: %v", step.name, err)
		}
		for off := 0; off < meta.Total(); off += 2 {
			got, err := spilled.WindowCtx(ctx, off, 2)
			if err != nil {
				t.Fatalf("%s: spilled window %d: %v", step.name, off, err)
			}
			want, err := plain.WindowCtx(ctx, off, 2)
			if err != nil {
				t.Fatalf("%s: plain window %d: %v", step.name, off, err)
			}
			if rg, rw := renderWindow(got), renderWindow(want); rg != rw {
				t.Fatalf("%s: window %d differs\nspilled:\n%s\nplain:\n%s", step.name, off, rg, rw)
			}
		}
	}
	if st := pol.Metrics.Snapshot(); st.Spills == 0 || st.RunBytes == 0 {
		t.Fatalf("no spill recorded across the walk: %+v", st)
	}

	// Closing the session removes every named run file.
	spilled.Close()
	if left := runFiles(t, pol.Dir); len(left) != 0 {
		t.Fatalf("run files left after Close: %v", left)
	}
}

// TestSessionSpillOversizedWindowStillRejected: spilling bounds
// memory, it does not unbound a single read — an explicit window wider
// than max-rows is still a RowLimitError with the unified payload.
func TestSessionSpillOversizedWindowStillRejected(t *testing.T) {
	s, _ := spillSession(t, 2)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	_, err := s.WindowCtx(context.Background(), 0, -1)
	var rle *graphrel.RowLimitError
	if !errors.As(err, &rle) || rle.Limit != 2 || rle.Rows != 6 {
		t.Fatalf("unbounded read err = %v, want RowLimitError{Limit: 2, Rows: 6}", err)
	}
}

// TestSessionSpillCorruption is the robustness drill: a run file
// damaged mid-browse surfaces a typed *spill.CorruptError (no panic),
// the session keeps serving other queries, and Close still removes
// the damaged file.
func TestSessionSpillCorruption(t *testing.T) {
	s, pol := spillSession(t, 2)
	ctx := context.Background()
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pivot("Authors"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WindowCtx(ctx, 0, 2); err != nil {
		t.Fatalf("first page before corruption: %v", err)
	}
	files := runFiles(t, pol.Dir)
	if len(files) == 0 {
		t.Fatal("no named run files to corrupt")
	}

	// Byte-flip the tail of every run file: the last run's payload no
	// longer matches its CRC.
	for _, name := range files {
		buf, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) == 0 {
			t.Fatalf("empty run file %s", name)
		}
		buf[len(buf)-1] ^= 0xFF
		if err := os.WriteFile(name, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Runs resident in the shared pool from the first page keep serving
	// — corruption surfaces only at the next disk fault. Churn the
	// 4-entry pool with other spilling presentations (each filter keeps
	// the join, so each spills and faults its own runs) until the
	// damaged runs are evicted. Stay under the presentation memo so the
	// revert below reuses the damaged files instead of re-preparing.
	for i := 0; i < 4; i++ {
		if err := s.Filter(fmt.Sprintf("id < %d", 2000+i)); err != nil {
			t.Fatalf("churn filter %d: %v", i, err)
		}
		if _, err := s.WindowCtx(ctx, 0, 2); err != nil {
			t.Fatalf("churn window %d: %v", i, err)
		}
	}

	// Reverting to the damaged presentation and faulting a fresh window
	// fails with the typed corruption error — never a panic.
	if err := s.Revert(1); err != nil {
		t.Fatal(err)
	}
	meta, err := s.WindowCtx(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	failOff := -1
	for off := 2; off < meta.Total(); off += 2 {
		if _, err := s.WindowCtx(ctx, off, 2); err != nil {
			var ce *spill.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("window %d over corrupt run: err = %v, want *spill.CorruptError", off, err)
			}
			failOff = off
			break
		}
	}
	if failOff < 0 {
		t.Fatal("corrupted tail run never surfaced while paging to the end")
	}

	// The session survives: a new query works (spilling to fresh,
	// undamaged files).
	if err := s.Filter("name like '%a%'"); err != nil {
		t.Fatalf("session dead after corruption: %v", err)
	}
	if _, err := s.WindowCtx(ctx, 0, 2); err != nil {
		t.Fatalf("window after corruption on fresh query: %v", err)
	}

	// Eviction path: Close removes the files, damaged or not.
	s.Close()
	if left := runFiles(t, pol.Dir); len(left) != 0 {
		t.Fatalf("run files left after Close: %v", left)
	}
}

// TestSessionSpillMemoEviction: cycling through more presentation
// states than the memo holds releases the evicted entries' spill
// files — disk usage is bounded by the memo, not by session history.
func TestSessionSpillMemoEviction(t *testing.T) {
	s, pol := spillSession(t, 2)
	ctx := context.Background()
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pivot("Authors"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WindowCtx(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	perPres := len(runFiles(t, pol.Dir))
	if perPres == 0 {
		t.Fatal("pivot did not spill")
	}
	// Each distinct filter over the join is a distinct spilled
	// presentation; cycling through more than the memo holds must
	// release the evicted entries' run files.
	const extra = memoEntries + 3
	for i := 0; i < extra; i++ {
		if err := s.Filter(fmt.Sprintf("id < %d", 1000+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WindowCtx(ctx, 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	live := len(runFiles(t, pol.Dir))
	if max := perPres * memoEntries; live > max {
		t.Fatalf("%d run files on disk after %d spilled states, memo holds %d (≤%d files) — evicted entries leak spill files",
			live, extra+1, memoEntries, max)
	}
	s.Close()
	if left := runFiles(t, pol.Dir); len(left) != 0 {
		t.Fatalf("run files left after Close: %v", left)
	}
}
