//go:build race

package etable

// raceDetectorEnabled reports whether this test binary was built with
// -race. The race detector's instrumentation changes allocation counts,
// so tests that pin an allocation ceiling skip those assertions under
// it.
const raceDetectorEnabled = true
