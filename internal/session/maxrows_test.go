package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/etable"
	"repro/internal/graphrel"
	"repro/internal/testdb"
	"repro/internal/value"
)

// cappedSession builds a session over the Figure 3 corpus whose
// windows are at most maxRows wide. Its matches are not capped: every
// result larger than the cap is served and paged.
func cappedSession(t testing.TB, maxRows int) *Session {
	t.Helper()
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	s := New(res.Schema, res.Instance)
	s.SetMaxRows(maxRows)
	return s
}

// renderWindow serializes one windowed result canonically so capped
// and uncapped sessions can be compared byte for byte.
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

// TestSessionSpillEquivalence drives one session capped at 2-row
// windows and one unbounded session through the same interaction —
// open, sort, hide, seeall — and asserts every rendered window is
// identical. The capped session serves every match, however large,
// and pages it in windows at most 2 rows wide.
func TestSessionSpillEquivalence(t *testing.T) {
	capped := cappedSession(t, 2)
	plain := newSession(t)
	ctx := context.Background()

	// The pivot to Authors has more matches than the 2-row cap.
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
		for _, s := range []*Session{capped, plain} {
			if err := step.apply(s); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}
		meta, err := capped.WindowCtx(ctx, 0, 0)
		if err != nil {
			t.Fatalf("%s: window metadata: %v", step.name, err)
		}
		for off := 0; off < meta.Total(); off += 2 {
			got, err := capped.WindowCtx(ctx, off, 2)
			if err != nil {
				t.Fatalf("%s: capped window %d: %v", step.name, off, err)
			}
			want, err := plain.WindowCtx(ctx, off, 2)
			if err != nil {
				t.Fatalf("%s: plain window %d: %v", step.name, off, err)
			}
			if rg, rw := renderWindow(got), renderWindow(want); rg != rw {
				t.Fatalf("%s: window %d differs\ncapped:\n%s\nplain:\n%s", step.name, off, rg, rw)
			}
		}
	}
}

// TestSessionSpillOversizedWindowStillRejected: a match is served
// whatever its size, but a single read is not unbounded — an explicit
// window wider than max-rows is a RowLimitError with the unified
// payload.
func TestSessionSpillOversizedWindowStillRejected(t *testing.T) {
	s := cappedSession(t, 2)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	_, err := s.WindowCtx(context.Background(), 0, -1)
	var rle *graphrel.RowLimitError
	if !errors.As(err, &rle) || rle.Limit != 2 || rle.Rows != 6 {
		t.Fatalf("unbounded read err = %v, want RowLimitError{Limit: 2, Rows: 6}", err)
	}
}

// TestSessionSpillMemoEviction: cycling through more states than the
// presentation memo holds, each larger than the 2-row window cap,
// serves every first page and evicts without releasing anything —
// what a session holds is bounded by the memo, not by session history.
func TestSessionSpillMemoEviction(t *testing.T) {
	s := cappedSession(t, 2)
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
}
