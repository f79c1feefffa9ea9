package main

import (
	"math"
	"sort"
	"time"
)

// samples keeps every raw per-operation duration of a run, so percentiles
// are exact order statistics rather than histogram bucket edges (the
// obs digests are 12.5 % wide; nothing end-to-end goes through them).
type samples struct {
	ms []float64
}

func (s *samples) add(d time.Duration) { s.ms = append(s.ms, float64(d.Nanoseconds())/1e6) }

func (s *samples) n() int { return len(s.ms) }

// percentile returns the exact p-th order statistic (nearest rank: the
// smallest sample with at least p % of the samples at or below it) and
// how many samples lie strictly beyond that rank.
func (s *samples) percentile(p float64) (value float64, beyond int) {
	n := len(s.ms)
	if n == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), s.ms...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// median is the middle value (mean of the two middle values for an even
// count); NaN for no values.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(v, n=4) (the "exclusive" method the
// acceptance procedure uses): position q·(n+1) in the sorted values,
// linearly interpolated, clamped to the ends. Fewer than two values
// give that value (or NaN) for both.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	at := func(q float64) float64 {
		pos := q * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return sorted[j-1] + delta*(sorted[j]-sorted[j-1])
	}
	return at(0.25), at(0.75)
}

func medianDuration(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	m := median(v)
	if math.IsNaN(m) {
		return 0
	}
	return time.Duration(m)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
