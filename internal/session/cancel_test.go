package session

import (
	"context"
	"errors"
	"testing"

	"repro/internal/etable"
	"repro/internal/ops"
	"repro/internal/testdb"
)

func newFigure3Session(t testing.TB) *Session {
	t.Helper()
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	return NewShared(res.Schema, res.Instance, etable.NewCache(etable.DefaultCacheEntries))
}

// TestApplyCtxCancellation asserts a canceled request context fails the
// op with context.Canceled and leaves the session unchanged — the
// abandoned-HTTP-request path.
func TestApplyCtxCancellation(t *testing.T) {
	s := newFigure3Session(t)
	if err := s.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Pivot resolves its column against the rendered result, so it
	// executes the pattern and observes the cancellation.
	err := s.ApplyCtx(ctx, ops.Pivot("Authors"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyCtx err = %v, want Canceled", err)
	}
	if h, _ := s.Entries(); len(h) != 1 {
		t.Errorf("history grew to %d entries after canceled op", len(h))
	}
	// Pipelines roll back wholesale (the filter applies, then the pivot
	// cancels).
	err = s.ApplyPipelineCtx(ctx, ops.Pipeline{ops.Filter("year > 2000"), ops.Pivot("Authors")})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyPipelineCtx err = %v, want Canceled", err)
	}
	if h, _ := s.Entries(); len(h) != 1 {
		t.Errorf("history grew to %d entries after canceled pipeline", len(h))
	}
	// The same op succeeds once the context is live.
	if err := s.ApplyCtx(context.Background(), ops.Pivot("Authors")); err != nil {
		t.Fatal(err)
	}
	// WindowCtx propagates cancellation for uncached patterns.
	s2 := newFigure3Session(t)
	if err := s2.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.WindowCtx(ctx, 0, -1); !errors.Is(err, context.Canceled) {
		t.Errorf("WindowCtx err = %v, want Canceled", err)
	}
}
