package session

import (
	"context"
	"errors"
	"testing"

	"repro/internal/etable"
	"repro/internal/exec"
	"repro/internal/ops"
	"repro/internal/testdb"
)

func newExecSession(t testing.TB, pool *exec.Pool, parallelism int) *Session {
	t.Helper()
	res, err := testdb.Figure3Translation()
	if err != nil {
		t.Fatal(err)
	}
	return NewWithExec(res.Schema, res.Instance,
		etable.NewCache(etable.DefaultCacheEntries), pool, parallelism)
}

// TestParallelSessionMatchesSerial asserts a pool-backed session renders
// the same results as a serial one across a mixed action sequence.
func TestParallelSessionMatchesSerial(t *testing.T) {
	par := newExecSession(t, exec.NewPool(4), 4)
	ser := newExecSession(t, nil, 0)
	script := func(s *Session) *etable.Result {
		t.Helper()
		for _, step := range []func() error{
			func() error { return s.Open("Papers") },
			func() error { return s.Filter("year > 2000") },
			func() error { return s.Pivot("Authors") },
			func() error { return s.Revert(1) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rp, rs := script(par), script(ser)
	if rp.NumRows() != rs.NumRows() || len(rp.Columns) != len(rs.Columns) {
		t.Fatalf("parallel %dx%d vs serial %dx%d",
			rp.NumRows(), len(rp.Columns), rs.NumRows(), len(rs.Columns))
	}
	for ri := range rs.Rows {
		if rp.Rows[ri].Node != rs.Rows[ri].Node {
			t.Fatalf("row %d: node %v vs %v", ri, rp.Rows[ri].Node, rs.Rows[ri].Node)
		}
	}
}

// TestApplyCtxCancellation asserts a canceled request context fails the
// op with context.Canceled and leaves the session unchanged — the
// abandoned-HTTP-request path.
func TestApplyCtxCancellation(t *testing.T) {
	s := newExecSession(t, exec.NewPool(2), 2)
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
	if got := len(s.History()); got != 1 {
		t.Errorf("history grew to %d entries after canceled op", got)
	}
	// Pipelines roll back wholesale (the filter applies, then the pivot
	// cancels).
	err = s.ApplyPipelineCtx(ctx, ops.Pipeline{ops.Filter("year > 2000"), ops.Pivot("Authors")})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyPipelineCtx err = %v, want Canceled", err)
	}
	if got := len(s.History()); got != 1 {
		t.Errorf("history grew to %d entries after canceled pipeline", got)
	}
	// The same op succeeds once the context is live.
	if err := s.ApplyCtx(context.Background(), ops.Pivot("Authors")); err != nil {
		t.Fatal(err)
	}
	// ResultCtx propagates cancellation for uncached patterns.
	s2 := newExecSession(t, exec.NewPool(2), 2)
	if err := s2.Open("Papers"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ResultCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("ResultCtx err = %v, want Canceled", err)
	}
}
