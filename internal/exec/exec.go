// Package exec provides the shared worker pool behind intra-query
// parallelism, after the morsel-driven parallelism line of modern
// analytical engines. Its one user is graphrel.SelectSet, the only kernel
// that fans out.
//
// Design:
//
//   - One Pool is shared by a whole process (the server creates one and
//     every session's queries draw from it), capped at a fixed number of
//     concurrently running helper goroutines. The cap is a hard
//     server-wide bound: 100 concurrent sessions cannot spawn
//     100×GOMAXPROCS goroutines, because helpers beyond the cap are
//     simply not started.
//   - Admission is try-acquire, never blocking: a query that finds the
//     pool empty degrades to serial execution on its own goroutine
//     instead of queueing. The calling goroutine always participates in
//     its own work, so Map makes progress even with zero pool tokens —
//     there is no deadlock and no priority inversion between queries.
//   - Each Map call carries a per-query parallelism budget (the
//     session's, fixed when the session is built) on top of the pool
//     cap: workers used = min(budget, tasks, 1+tokens available).
//   - Cancellation is cooperative: workers recheck the context between
//     tasks (between morsels, in the kernels built on top), so an
//     abandoned HTTP request stops a long join mid-flight.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a bounded set of execution tokens shared by concurrent
// queries. The zero value is unusable; use NewPool. A nil *Pool is
// valid everywhere and means "always serial".
type Pool struct {
	tokens chan struct{}
	cap    int
}

// NewPool returns a pool allowing at most maxWorkers concurrently
// running helper goroutines across all Map calls. maxWorkers <= 0
// defaults to GOMAXPROCS.
func NewPool(maxWorkers int) *Pool {
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tokens: make(chan struct{}, maxWorkers), cap: maxWorkers}
	for i := 0; i < maxWorkers; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Cap returns the pool's helper-goroutine cap (0 for a nil pool).
func (p *Pool) Cap() int {
	if p == nil {
		return 0
	}
	return p.cap
}

// InFlight returns the number of helper goroutines currently running
// (0 for a nil pool). It is a monitoring statistic, racy by nature.
func (p *Pool) InFlight() int {
	if p == nil {
		return 0
	}
	return p.cap - len(p.tokens)
}

// tryAcquire takes a token without blocking.
func (p *Pool) tryAcquire() bool {
	select {
	case <-p.tokens:
		return true
	default:
		return false
	}
}

func (p *Pool) release() { p.tokens <- struct{}{} }

// Map runs f(0), …, f(tasks-1), fanning out to at most budget workers
// (the caller counts as one; helpers beyond the first worker are
// admitted only while pool tokens are available). Tasks are claimed
// from a shared atomic counter, so morsel sizes need not be balanced.
//
// The first error stops further task claims and is returned; already
// running tasks finish. If ctx is canceled, workers stop between tasks
// and Map returns ctx.Err(). A panic inside f — on any worker,
// including the caller's — is recovered and returned as an error
// carrying the panic value and stack, so one bad task fails one query
// instead of crashing the process (a panic on a bare helper goroutine
// would be unrecoverable anywhere else). Map never returns before
// every started task has finished, so callers may safely splice
// per-task outputs.
//
// A nil pool, a budget <= 1, or tasks <= 1 runs everything serially on
// the calling goroutine (still honoring ctx between tasks).
func (p *Pool) Map(ctx context.Context, tasks, budget int, f func(i int) error) error {
	if tasks <= 0 {
		return nil
	}
	if budget > tasks {
		budget = tasks
	}

	var next atomic.Int64
	var failed atomic.Bool
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}

	worker := func() {
		defer func() {
			if r := recover(); r != nil {
				fail(fmt.Errorf("exec: task panicked: %v\n%s", r, debug.Stack()))
			}
		}()
		for {
			if failed.Load() {
				return
			}
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
			}
			i := int(next.Add(1)) - 1
			if i >= tasks {
				return
			}
			if err := f(i); err != nil {
				fail(err)
				return
			}
		}
	}

	var wg sync.WaitGroup
	if p != nil {
		for spawned := 1; spawned < budget && p.tryAcquire(); spawned++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer p.release()
				worker()
			}()
		}
	}
	worker()
	wg.Wait()
	return firstErr
}
