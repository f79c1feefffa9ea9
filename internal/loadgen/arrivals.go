package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Arrivals generates a deterministic, seeded sequence of exponential
// inter-arrival times (a Poisson process, CV = 1) with a given mean
// rate. Run consumes it up front to build a fixed schedule — session
// start times never depend on completions, which is what
// makes the measured latencies honest under overload.
type Arrivals struct {
	rate float64 // arrivals per second
	rng  *rand.Rand
}

// NewArrivals validates the rate (arrivals per second, > 0) and seeds
// the process.
func NewArrivals(rate float64, seed int64) (*Arrivals, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: arrival rate must be > 0, got %g", rate)
	}
	return &Arrivals{rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next draws one inter-arrival time: a unit-mean exponential by inverse
// CDF, scaled by the mean 1/rate.
func (a *Arrivals) Next() time.Duration {
	u := a.rng.Float64()
	for u == 0 {
		u = a.rng.Float64()
	}
	mean := 1 / a.rate
	return time.Duration(-math.Log(u) * mean * float64(time.Second))
}
