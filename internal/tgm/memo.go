package tgm

import (
	"sync"
	"sync/atomic"
)

// Memo holds one value derived from a graph — a rank, an encoding —
// kept for the graph's lifetime. On a frozen graph the first Get builds
// it and concurrent first calls share that one build; a failed build (a
// column fault, say) stores nothing, so the next call retries. An
// unfrozen graph may still change, so Get builds on every call and
// stores nothing. The zero Memo is empty and ready to use; a Memo must
// not be copied after first use.
type Memo[T any] struct {
	mu sync.Mutex
	v  atomic.Pointer[T]
}

// Get returns the memoized value, building it with build on the first
// call over frozen graph g.
func (m *Memo[T]) Get(g *InstanceGraph, build func() (T, error)) (T, error) {
	if p := m.v.Load(); p != nil {
		return *p, nil
	}
	if !g.Frozen() {
		return build()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.v.Load(); p != nil {
		return *p, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	m.v.Store(&v)
	return v, nil
}

// Peek returns the memoized value without building it; ok is false
// until a build has succeeded.
func (m *Memo[T]) Peek() (v T, ok bool) {
	if p := m.v.Load(); p != nil {
		return *p, true
	}
	return v, false
}
