//go:build race

package twostage

// raceEnabled: see race_off_test.go.
const raceEnabled = true
