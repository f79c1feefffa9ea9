//go:build race

package loop

// raceEnabled: see race_off_test.go.
const raceEnabled = true
