//go:build !race

package fabric

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-budget tests skip under it (the instrumentation
// itself allocates).
const raceEnabled = false
