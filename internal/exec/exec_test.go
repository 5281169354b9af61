package exec

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapRunsEveryTaskExactlyOnce(t *testing.T) {
	p := NewPool(4)
	const tasks = 1000
	var counts [tasks]atomic.Int32
	if err := p.Map(context.Background(), tasks, 8, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
}

func TestMapNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Cap() != 0 || p.InFlight() != 0 {
		t.Fatalf("nil pool cap/inflight = %d/%d", p.Cap(), p.InFlight())
	}
	ran := 0
	if err := p.Map(context.Background(), 10, 8, func(i int) error {
		// Serial execution implies in-order task claims.
		if i != ran {
			t.Fatalf("task %d ran out of order (expected %d)", i, ran)
		}
		ran++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 10 {
		t.Fatalf("ran %d of 10 tasks", ran)
	}
}

func TestMapZeroAndNegativeTasks(t *testing.T) {
	p := NewPool(2)
	for _, n := range []int{0, -3} {
		if err := p.Map(context.Background(), n, 4, func(int) error {
			t.Fatal("task ran")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	p := NewPool(4)
	boom := errors.New("boom")
	var after atomic.Int32
	err := p.Map(context.Background(), 500, 4, func(i int) error {
		if i == 7 {
			return boom
		}
		after.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The error must stop further claims: with 500 tasks and an error at
	// the 8th claim, nowhere near all tasks may run.
	if n := after.Load(); n >= 499 {
		t.Fatalf("error did not stop the fan-out (%d tasks completed)", n)
	}
}

func TestMapCancellationStopsBetweenTasks(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := p.Map(ctx, 10_000, 2, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10_000 {
		t.Fatal("cancellation did not stop the fan-out")
	}
}

func TestMapRespectsPoolCap(t *testing.T) {
	// Pool of 1 helper: at most 2 goroutines (caller + 1 helper) may be
	// inside f at once, regardless of the requested budget.
	p := NewPool(1)
	var inFlight, peak atomic.Int32
	if err := p.Map(context.Background(), 200, 16, func(i int) error {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		inFlight.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds caller+cap=2", got)
	}
}

func TestMapRespectsBudget(t *testing.T) {
	p := NewPool(16)
	var inFlight, peak atomic.Int32
	if err := p.Map(context.Background(), 200, 3, func(i int) error {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		inFlight.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds budget 3", got)
	}
}

func TestMapExhaustedPoolStillCompletes(t *testing.T) {
	// Drain the pool, then Map must still finish serially on the caller.
	p := NewPool(2)
	<-p.tokens
	<-p.tokens
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ran atomic.Int32
		if err := p.Map(context.Background(), 50, 8, func(int) error {
			ran.Add(1)
			return nil
		}); err != nil {
			t.Error(err)
		}
		if ran.Load() != 50 {
			t.Errorf("ran %d of 50", ran.Load())
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map deadlocked on an exhausted pool")
	}
	p.release()
	p.release()
}

func TestConcurrentMapsShareThePool(t *testing.T) {
	// Many concurrent queries over one pool: the global helper count must
	// never exceed the cap (InFlight is exact at the token level).
	p := NewPool(3)
	const queries = 8
	errs := make(chan error, queries)
	for q := 0; q < queries; q++ {
		go func() {
			errs <- p.Map(context.Background(), 100, 4, func(int) error {
				if h := p.InFlight(); h > p.Cap() {
					t.Errorf("helpers in flight %d > cap %d", h, p.Cap())
				}
				time.Sleep(20 * time.Microsecond)
				return nil
			})
		}()
	}
	for q := 0; q < queries; q++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := p.InFlight(); got != 0 {
		t.Fatalf("tokens leaked: %d still in flight", got)
	}
}

func TestNewPoolDefaultsToGOMAXPROCS(t *testing.T) {
	if NewPool(0).Cap() < 1 {
		t.Fatal("default pool has no capacity")
	}
	if NewPool(-5).Cap() < 1 {
		t.Fatal("negative cap accepted")
	}
}

func TestMapPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPool(2)
	ran := false
	err := p.Map(ctx, 10, 2, func(int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("task ran under a pre-canceled context")
	}
}

func TestMapRecoversTaskPanics(t *testing.T) {
	p := NewPool(2)
	err := p.Map(context.Background(), 100, 4, func(i int) error {
		if i == 3 {
			panic("boom at 3")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "boom at 3") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	// The pool must not leak tokens after a panicking run.
	if got := p.InFlight(); got != 0 {
		t.Fatalf("tokens leaked after panic: %d in flight", got)
	}
	// And stays usable.
	if err := p.Map(context.Background(), 10, 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
