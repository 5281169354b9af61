// Package exec holds an empty Pool type for callers that still build
// one. No query fans out: every query runs on its request's goroutine
// (graphrel.SelectSet scans its morsels in a loop).
//
// Deprecated: nothing reads a Pool. ROADMAP item 1(g) deletes the
// package once its last caller, the benchmark harness, stops building
// one.
package exec

// Pool is an empty type; nothing reads it.
//
// Deprecated: queries run on their caller's goroutine; a Pool changes
// nothing.
type Pool struct{}

// NewPool returns an empty Pool; maxWorkers is ignored.
//
// Deprecated: queries run on their caller's goroutine; a Pool changes
// nothing.
func NewPool(maxWorkers int) *Pool { return &Pool{} }
