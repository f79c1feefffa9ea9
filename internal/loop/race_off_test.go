//go:build !race

package loop

// raceEnabled reports whether the race detector is active: the
// reference-equivalence test re-prepares every candidate's frames one
// after another and would add minutes under the detector's slowdown, so
// it skips itself; the concurrent-verification test is the one -race is
// for.
const raceEnabled = false
