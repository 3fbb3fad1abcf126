//go:build !race

package ranking_test

// raceEnabled reports whether the race detector instruments this build; the
// allocation-ceiling tests skip themselves under it.
const raceEnabled = false
