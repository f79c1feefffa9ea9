//go:build !race

package twostage

// raceEnabled reports whether the race detector is active: its shadow
// allocations break AllocsPerRun budgets, so the allocation tests skip
// themselves under -race.
const raceEnabled = false
