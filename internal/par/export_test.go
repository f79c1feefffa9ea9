package par

import "testing"

// WithBudget gives the process a budget of n slots for the rest of the
// test. Nothing may be computing on slots when it is called or when the
// test ends.
func WithBudget(t testing.TB, n int) {
	budget()
	old := slots
	slots = make(chan struct{}, n)
	t.Cleanup(func() { slots = old })
}

// Probe installs the budget's test hooks for the rest of the test (see
// probe); either may be nil. They are called from every goroutine that
// takes a slot or runs a loop.
func Probe(t testing.TB, slot func(delta int), loop func(asked, granted int)) {
	probe.slot, probe.loop = slot, loop
	t.Cleanup(func() { probe.slot, probe.loop = nil, nil })
}
