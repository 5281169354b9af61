// Package pager holds what out-of-core reads share: File, a read-only
// random-access view of a snapshot file, and Key, the name of one
// faultable section. The buffer pool in front of them — a lazy
// snapshot's decoded columns — is an lru.Cache keyed by Key: a fixed
// budget of resident sections, faulted in on first touch, evicted least
// recently used first, and pinnable for the duration of a window
// materialization.
//
// A pool bounds *residency*, not validity: evicting a section only drops
// the pool's reference to the decoded column, so slices already loaned
// to callers stay valid (the garbage collector keeps them alive until
// the caller drops them). Pins therefore exist to bound rework — a
// pinned section cannot be evicted and re-faulted while a window is
// mid-materialization — not to prevent use-after-free, which the
// runtime already rules out.
package pager

// Key identifies one faultable section: an attribute column of a node
// type.
type Key struct {
	// Type is the owning node type's name.
	Type string
	// Attr is the attribute ordinal within the type.
	Attr int
}
