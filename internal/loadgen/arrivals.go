package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// arrivals generates a deterministic, seeded sequence of exponential
// inter-arrival times (a Poisson process, CV = 1) with a given mean
// rate. Run consumes it up front to build a fixed schedule — session
// start times never depend on completions, which is what
// makes the measured latencies honest under overload.
type arrivals struct {
	rate float64 // arrivals per second
	rng  *rand.Rand
}

// newArrivals validates the rate (arrivals per second, finite and > 0)
// and seeds the process.
func newArrivals(rate float64, seed int64) (*arrivals, error) {
	if !(rate > 0 && rate < math.Inf(1)) {
		return nil, fmt.Errorf("loadgen: arrival rate must be finite and > 0, got %g", rate)
	}
	return &arrivals{rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next draws one inter-arrival time: a unit-mean exponential by inverse
// CDF, scaled by the mean 1/rate.
func (a *arrivals) Next() time.Duration {
	u := a.rng.Float64()
	for u == 0 {
		u = a.rng.Float64()
	}
	mean := 1 / a.rate
	return time.Duration(-math.Log(u) * mean * float64(time.Second))
}
