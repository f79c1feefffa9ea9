//go:build race

package search

// See race_off_test.go.
const raceEnabled = true
