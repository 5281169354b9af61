package session

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/etable"
	"repro/internal/graphrel"
	"repro/internal/testdb"
	"repro/internal/value"
)

// spillSession builds a session over the Figure 3 corpus capped at
// trigger rows under a spill policy over a per-test directory, so every
// result larger than the cap is served past it.
func spillSession(t testing.TB, trigger int) (*Session, *graphrel.SpillPolicy) {
	t.Helper()
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	s := New(res.Schema, res.Instance)
	pol := &graphrel.SpillPolicy{Dir: t.TempDir()}
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

// runFiles lists the entries of the spill directory dir: nothing
// writes one, whatever the cap.
func runFiles(t testing.TB, dir string) []os.DirEntry {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestSessionSpillEquivalence drives one capped session under a spill
// policy and one unbounded session through the same interaction —
// open, sort, hide, seeall — and asserts every rendered window is
// identical. The capped session pages in windows at most trigger rows
// wide (the pre-window guard still caps single reads), and nothing is
// written to its spill directory.
func TestSessionSpillEquivalence(t *testing.T) {
	spilled, pol := spillSession(t, 2)
	plain := newSession(t)
	ctx := context.Background()

	// The pivot to Authors adds the join whose pair count crosses the
	// 2-row trigger; a joinless open is never capped (no join, no
	// amplification — the pre-window guard alone caps reads).
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
	if left := runFiles(t, pol.Dir); len(left) != 0 {
		t.Fatalf("the walk wrote %d spill entries", len(left))
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

// TestSessionSpillMemoEviction: cycling through more capped states
// than the presentation memo holds, each past the row cap under the
// spill policy, serves every first page, evicts without releasing
// anything and writes nothing to the spill directory — what a session
// holds is bounded by the memo, not by session history.
func TestSessionSpillMemoEviction(t *testing.T) {
	s, pol := spillSession(t, 2)
	ctx := context.Background()
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if err := s.Pivot("Authors"); err != nil {
		t.Fatal(err)
	}
	first, err := s.WindowCtx(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if first.Total() <= 2 {
		t.Fatalf("pivot has %d rows: not past the 2-row cap", first.Total())
	}
	const extra = memoEntries + 3
	for i := 0; i < extra; i++ {
		if err := s.Filter(fmt.Sprintf("id < %d", 1000+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WindowCtx(ctx, 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.memo.Len(); n > memoEntries {
		t.Fatalf("memo holds %d presentations after %d states, bound %d", n, extra+1, memoEntries)
	}
	// The first state was evicted; reading it again re-prepares it.
	if err := s.Revert(1); err != nil {
		t.Fatal(err)
	}
	again, err := s.WindowCtx(ctx, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderWindow(again), renderWindow(first); got != want {
		t.Fatalf("re-prepared window differs\ngot:\n%s\nwant:\n%s", got, want)
	}
	if left := runFiles(t, pol.Dir); len(left) != 0 {
		t.Fatalf("%d spill entries after %d capped states", len(left), extra+1)
	}
}
