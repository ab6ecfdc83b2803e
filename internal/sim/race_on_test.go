//go:build race

package sim

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-budget tests skip under it (the instrumentation
// itself allocates).
const raceEnabled = true
