package etable

import (
	"testing"

	"repro/internal/graphrel"
)

// testSpillPolicy builds a policy over a per-test temp directory.
func testSpillPolicy(t testing.TB) *graphrel.SpillPolicy {
	t.Helper()
	return &graphrel.SpillPolicy{Dir: t.TempDir()}
}

// TestSpilledExecutorBrowsable pins the executor contract past the row
// cap under a spill policy: the prepare succeeds past MaxRows and
// renders the oracle's table, a second capped prepare does too, only
// the reduced sets are cached, and an uncapped prepare of the same
// pattern is the same table.
func TestSpilledExecutorBrowsable(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	_, full := oracleTable(t, tr.Instance, p)
	if full.NumRows() < 4 {
		t.Fatalf("fixture too small: %d rows", full.NumRows())
	}
	e := NewExecutor(tr.Instance)
	opt := ExecOptions{MaxRows: 2, Spill: testSpillPolicy(t)}
	for _, o := range []ExecOptions{opt, opt, {Spill: opt.Spill}} {
		pr, err := e.PrepareWithOpts(p, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "past the cap", got, full)
	}
	if _, ok := e.Cache().Get(matchPrefix + Signature(p)); !ok {
		t.Fatal("the reduced match is not cached")
	}
}
