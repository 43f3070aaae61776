//go:build race

package cluster

// raceEnabled reports whether the race detector is instrumenting this
// test binary.
const raceEnabled = true
