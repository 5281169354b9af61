package etable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graphrel"
)

// dummyRel returns a distinct non-nil cache value for cache tests;
// the cache never inspects the value.
func dummyRel() *graphrel.Relation { return &graphrel.Relation{} }

// TestCacheExactCapacity: NewCache(n) holds exactly n relations and
// evicts the least recently used key of the whole cache, whatever the
// keys hash to.
func TestCacheExactCapacity(t *testing.T) {
	c := NewCache(3)
	compute := func() (*graphrel.Relation, error) { return dummyRel(), nil }
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.GetOrCompute(k, compute); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get("a"); !ok { // "b" is now least recently used
		t.Fatal(`"a" missing`)
	}
	if _, err := c.GetOrCompute("d", compute); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("NewCache(3) holds %d relations, want 3", c.Len())
	}
	for k, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("%q cached = %v, want %v", k, ok, want)
		}
	}
}

func TestCacheGetOrComputeHitMiss(t *testing.T) {
	c := NewCache(64)
	r := dummyRel()
	calls := 0
	compute := func() (*graphrel.Relation, error) { calls++; return r, nil }

	got, err := c.GetOrCompute("k", compute)
	if err != nil || got != r {
		t.Fatalf("first get = %v, %v", got, err)
	}
	got, err = c.GetOrCompute("k", compute)
	if err != nil || got != r {
		t.Fatalf("second get = %v, %v", got, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times", calls)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(64)
	boom := errors.New("boom")
	calls := 0
	if _, err := c.GetOrCompute("k", func() (*graphrel.Relation, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	r := dummyRel()
	got, err := c.GetOrCompute("k", func() (*graphrel.Relation, error) { calls++; return r, nil })
	if err != nil || got != r {
		t.Fatalf("retry = %v, %v", got, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (error must not be cached)", calls)
	}
}

// TestCacheSingleflight proves that N concurrent requests for one key
// run the compute function exactly once, all receive its result, and
// the waiters count as hits.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(64)
	r := dummyRel()
	var computes atomic.Int64
	const workers = 16

	var start, done sync.WaitGroup
	start.Add(workers)
	done.Add(workers)
	results := make([]*graphrel.Relation, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			start.Wait() // all workers release together
			rel, err := c.GetOrCompute("shared", func() (*graphrel.Relation, error) {
				computes.Add(1)
				time.Sleep(50 * time.Millisecond) // hold the flight open
				return r, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = rel
		}(i)
	}
	done.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times under concurrency, want 1", n)
	}
	for i, rel := range results {
		if rel != r {
			t.Errorf("worker %d got a different relation", i)
		}
	}
	if c.Hits()+c.Misses() != workers {
		t.Errorf("hits+misses = %d, want %d", c.Hits()+c.Misses(), workers)
	}
	if c.Misses() != 1 {
		t.Errorf("misses = %d, want 1 (waiters count as hits)", c.Misses())
	}
}

// TestCacheConcurrentHammer exercises mixed keys, eviction, and
// singleflight together; run with -race.
func TestCacheConcurrentHammer(t *testing.T) {
	c := NewCache(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w+i)%48)
				rel, err := c.GetOrCompute(key, func() (*graphrel.Relation, error) {
					return dummyRel(), nil
				})
				if err != nil || rel == nil {
					t.Errorf("get %q: %v, %v", key, rel, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Errorf("cache over capacity: %d", c.Len())
	}
	if c.Hits()+c.Misses() != 8*200 {
		t.Errorf("counter drift: hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

// TestCacheConcurrentExecutors runs real pattern executions from many
// goroutines over one shared cache; with -race this also verifies the
// immutability contract of shared relations end to end.
func TestCacheConcurrentExecutors(t *testing.T) {
	res := fixture(t)
	shared := NewCache(128)
	var wg sync.WaitGroup
	rows := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p, err := Initiate(res.Schema, "Papers")
				if err != nil {
					t.Error(err)
					return
				}
				if p, err = Select(p, "year > 2005"); err != nil {
					t.Error(err)
					return
				}
				r, err := executeCached(shared, res.Instance, p)
				if err != nil {
					t.Error(err)
					return
				}
				rows[w] = r.NumRows()
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		if rows[w] != rows[0] {
			t.Errorf("session %d saw %d rows, session 0 saw %d", w, rows[w], rows[0])
		}
	}
	if shared.Hits() == 0 {
		t.Error("no shared-cache hits under concurrent identical load")
	}
}
