package tgm

import (
	"sync"
	"sync/atomic"
)

// Derived state is what a package computes from a frozen graph and
// keeps for the graph's lifetime — an attribute's rank, a server's label
// fragments, the graph statistics. All of it lives in one registry on
// the graph (InstanceGraph.derived), so it shares the graph's lifetime
// and is reached one way. Each value sits under a key its owning
// package chooses: any comparable value of a type that package defines,
// so two packages' keys never collide and no central list of kinds
// exists. One key always holds one type of value.
//
// The contract: on a frozen graph the first Derive of a key builds its
// value and concurrent first calls share that one build; a failed build
// (a column fault, say) stores nothing, so the next call retries. An
// unfrozen graph may still change, so Derive builds on every call and
// stores nothing. Nothing is ever evicted.

// derivedEntry is one key's slot: mu serializes its builds, and v is
// written once, before done is set.
type derivedEntry struct {
	mu   sync.Mutex
	done atomic.Bool
	v    any
}

// Derive returns the value g holds under key, building it with build
// on the first call over a frozen graph (see the contract above).
func Derive[T any, K comparable](g *InstanceGraph, key K, build func() (T, error)) (T, error) {
	if !g.Frozen() {
		return build()
	}
	e, ok := g.derived.Load(key)
	if !ok {
		e, _ = g.derived.LoadOrStore(key, new(derivedEntry))
	}
	ent := e.(*derivedEntry)
	if ent.done.Load() {
		return ent.v.(T), nil
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.done.Load() {
		return ent.v.(T), nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	ent.v = v
	ent.done.Store(true)
	return v, nil
}

// Peek returns the value g holds under key without building it; ok is
// false until a build has succeeded.
func Peek[T any, K comparable](g *InstanceGraph, key K) (v T, ok bool) {
	e, found := g.derived.Load(key)
	if !found || !e.(*derivedEntry).done.Load() {
		return v, false
	}
	return e.(*derivedEntry).v.(T), true
}
