package search

import (
	"math"
	"math/rand"
	"testing"

	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/twostage"
)

// shiftAll moves every query by d and charges |d| to its budget.
func shiftAll(qs []geom.Vec3, moved []float64, d geom.Vec3) {
	for i := range qs {
		qs[i] = qs[i].Add(d)
		moved[i] += d.Norm()
	}
}

// TestBatchNearestTrackedMatchesInto: on the exact two-stage searcher at
// one and two workers, tracked batches of moving queries answer as
// BatchNearestInto does, bit for bit; Metrics counts one query per answer
// and, as visits, exactly what the per-query tracked calls count — fewer
// than the walks once certificates hold.
func TestBatchNearestTrackedMatchesInto(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	pts := randPoints(r, 4000)
	base := randPoints(r, 700)
	for _, workers := range []int{1, 2} {
		s := NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: -1, Parallelism: workers})
		fresh := NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: -1, Parallelism: workers})
		qs := append([]geom.Vec3(nil), base...)
		certs, moved := make([]twostage.Cert, len(qs)), make([]float64, len(qs))
		var buf []kdtree.Neighbor
		var walkedVisits, trackedVisits int64
		for step := 0; step < 8; step++ {
			// What the tracked calls count, one by one, on copies.
			var want twostage.Stats
			c, m := append([]twostage.Cert(nil), certs...), append([]float64(nil), moved...)
			for i, q := range qs {
				s.index.NearestTracked(q, &c[i], &m[i], &want)
			}
			before, beforeFresh := *s.Metrics(), *fresh.Metrics()
			buf = BatchNearestTracked(s, qs, certs, moved, buf)
			want2 := BatchNearestInto(fresh, qs, nil)
			if !sameNeighbors(buf, want2) {
				t.Fatalf("workers=%d step %d: tracked answers differ from BatchNearestInto", workers, step)
			}
			for i := range certs {
				if certs[i] != c[i] || math.Float64bits(moved[i]) != math.Float64bits(m[i]) {
					t.Fatalf("workers=%d step %d query %d: batch left another certificate than the call", workers, step, i)
				}
			}
			after, afterFresh := s.Metrics(), fresh.Metrics()
			queries, visited := after.Queries-before.Queries, after.NodesVisited-before.NodesVisited
			if queries != int64(len(qs)) || afterFresh.Queries-beforeFresh.Queries != int64(len(qs)) {
				t.Fatalf("workers=%d step %d: %d queries counted for %d answers", workers, step, queries, len(qs))
			}
			if wantQ, wantV := want.Totals(); queries != wantQ || visited != wantV {
				t.Fatalf("workers=%d step %d: counted %d queries / %d visits, the calls %d / %d", workers, step, queries, visited, wantQ, wantV)
			}
			if step > 0 {
				walkedVisits += afterFresh.NodesVisited - beforeFresh.NodesVisited
				trackedVisits += visited
			}
			shiftAll(qs, moved, geom.V3(r.NormFloat64()*0.01, r.NormFloat64()*0.01, r.NormFloat64()*0.003))
		}
		if trackedVisits >= walkedVisits {
			t.Errorf("workers=%d: tracked batches visited %d, walks %d: nothing was certified", workers, trackedVisits, walkedVisits)
		}
	}
}

// TestBatchNearestTrackedFallsBack: every other searcher answers a
// tracked batch through BatchNearestInto — the same answers and counts —
// and leaves the certificates and budgets as they were.
func TestBatchNearestTrackedFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	pts := randPoints(r, 1500)
	qs := randPoints(r, 200)
	approx := &twostage.ApproxOptions{Threshold: 1.2, RadiusThresholdFrac: 0.4}
	searchers := map[string]func() Searcher{
		"canonical":       func() Searcher { return NewKDSearcher(pts) },
		"bruteforce":      func() Searcher { return NewBruteSearcher(pts) },
		"twostage-approx": func() Searcher { return NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: -1, Approx: approx}) },
		"trace": func() Searcher {
			return &TraceSearcher{Searcher: NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: -1}), Log: &TraceLog{}}
		},
		"kthnn-inject": func() Searcher {
			return &KthNNSearcher{Searcher: NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: -1}), K: 2}
		},
		"shell-inject": func() Searcher {
			return &ShellSearcher{Searcher: NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: -1}), R1: 0.5, R2: 2.5}
		},
	}
	for name, build := range searchers {
		tracked, plain := build(), build()
		certs, moved := make([]twostage.Cert, len(qs)), make([]float64, len(qs))
		for i := range moved {
			moved[i] = float64(i)
		}
		for step := 0; step < 2; step++ {
			got := BatchNearestTracked(tracked, qs, certs, moved, nil)
			want := BatchNearestInto(plain, qs, nil)
			if !sameNeighbors(got, want) {
				t.Fatalf("%s: tracked batch answers differ from BatchNearestInto", name)
			}
			if gm, wm := tracked.Metrics(), plain.Metrics(); gm.Queries != wm.Queries || gm.NodesVisited != wm.NodesVisited {
				t.Fatalf("%s: tracked batch counted %d / %d, BatchNearestInto %d / %d", name, gm.Queries, gm.NodesVisited, wm.Queries, wm.NodesVisited)
			}
		}
		for i := range certs {
			if certs[i] != (twostage.Cert{}) || moved[i] != float64(i) {
				t.Fatalf("%s: query %d's certificate or budget was touched", name, i)
			}
		}
	}
}

// TestTrackedBatchAllocatesNothingOfItsOwn: a tracked batch into a buffer
// of the right size allocates no more than BatchNearestInto does (the
// worker pool's per-batch closure), certified or walked: certificates and
// budgets are the caller's.
func TestTrackedBatchAllocatesNothingOfItsOwn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	r := rand.New(rand.NewSource(41))
	s := NewTwoStageSearcher(randPoints(r, 3000), TwoStageConfig{TopHeight: -1, Parallelism: 1})
	qs := randPoints(r, 600)
	certs, moved := make([]twostage.Cert, len(qs)), make([]float64, len(qs))
	buf := BatchNearestTracked(s, qs, certs, moved, nil)
	tracked := testing.AllocsPerRun(10, func() {
		shiftAll(qs, moved, geom.V3(1e-3, 0, 0))
		buf = BatchNearestTracked(s, qs, certs, moved, buf)
	})
	plain := testing.AllocsPerRun(10, func() { buf = BatchNearestInto(s, qs, buf) })
	if tracked > plain {
		t.Errorf("%.1f allocations per tracked batch, BatchNearestInto %.1f", tracked, plain)
	}
}
