package search

import (
	"math/rand"
	"testing"

	"tigris/internal/kdtree"
	"tigris/internal/twostage"
)

// drainIdleBatches empties the process-wide idle list so a test sees only
// the batches it recycles itself.
func drainIdleBatches() {
	for {
		if _, ok := idleBatches.Get(); !ok {
			return
		}
	}
}

// TestBatchSteadyStateZeroAllocs: once a batch's header and arenas have
// grown to the workload, answering it and handing it back allocates
// nothing — on every built-in backend, radius and k-NN alike. (A
// single-worker searcher; wider ones add the worker pool's fixed
// per-batch closures and shards, nothing per query.)
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	r := rand.New(rand.NewSource(21))
	pts := randPoints(r, 3000)
	qs := randPoints(r, 600)
	approx := twostage.ApproxOptions{Threshold: 1.2, RadiusThresholdFrac: 0.4}
	for name, s := range map[string]Searcher{
		"canonical":  NewKDSearcher(pts),
		"twostage":   NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 5}),
		"bruteforce": NewBruteSearcher(pts),
	} {
		s.SetParallelism(1)
		for kind, batch := range map[string]func() [][]kdtree.Neighbor{
			"radius": func() [][]kdtree.Neighbor { return s.RadiusBatch(qs, 1.5) },
			"knn":    func() [][]kdtree.Neighbor { return s.KNearestBatch(qs, 8) },
		} {
			for i := 0; i < 3; i++ {
				RecycleBatch(batch())
			}
			if allocs := testing.AllocsPerRun(10, func() { RecycleBatch(batch()) }); allocs != 0 {
				t.Errorf("%s/%s: %.1f allocations per recycled batch, want 0", name, kind, allocs)
			}
		}
	}
	// The approximate backend's exact misses append to leader result sets
	// it keeps, so its batches are pooled but not allocation-free; they
	// must still round-trip through the pool.
	s := NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 5, Approx: &approx})
	s.SetParallelism(1)
	drainIdleBatches()
	RecycleBatch(s.RadiusBatch(qs, 1.5))
	if _, ok := idleBatches.Get(); !ok {
		t.Error("approximate RadiusBatch did not return a pooled batch")
	}
}

// TestRecycledBatchesServeAnyShape: one idle header must serve batches
// of other sizes and worker counts — wider, narrower, longer, empty —
// without ever handing two workers the same arena or leaking one batch's
// answers into the next.
func TestRecycledBatchesServeAnyShape(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	pts := randPoints(r, 2500)
	s := NewKDSearcher(pts)
	oracle := NewKDSearcher(pts)
	drainIdleBatches()
	for round, shape := range []struct{ n, workers int }{
		{300, 1}, {40, 8}, {900, 3}, {0, 2}, {1, 1}, {900, 8}, {5, 2},
	} {
		qs := randPoints(r, shape.n)
		s.SetParallelism(shape.workers)
		radius := 0.9 + 0.2*float64(round%3)
		res := s.RadiusBatch(qs, radius)
		if len(res) != shape.n {
			t.Fatalf("round %d: %d results for %d queries", round, len(res), shape.n)
		}
		for i, q := range qs {
			if !sameNeighbors(res[i], oracle.Radius(q, radius)) {
				t.Fatalf("round %d (n=%d, workers=%d): query %d diverged", round, shape.n, shape.workers, i)
			}
		}
		RecycleBatch(res)
		// Exactly one header circulates: every batch reused the last.
		hdr, ok := idleBatches.Get()
		if !ok {
			t.Fatalf("round %d: recycled batch did not reach the idle list", round)
		}
		if _, second := idleBatches.Get(); second {
			t.Fatalf("round %d: a second header appeared; the idle one was not reused", round)
		}
		arenas := heldArenas(hdr)
		if len(arenas) < shape.workers {
			t.Fatalf("round %d: header holds %d arenas for %d workers", round, len(arenas), shape.workers)
		}
		for a := range arenas {
			for b := a + 1; b < len(arenas); b++ {
				if cap(arenas[a]) > 0 && cap(arenas[b]) > 0 && &arenas[a][:1][0] == &arenas[b][:1][0] {
					t.Fatalf("round %d: arenas %d and %d share storage", round, a, b)
				}
			}
		}
		idleBatches.Put(hdr)
	}
}

// TestRecycleBatchIgnoresWhatIsNotAWholeBatch: a result that was
// re-sliced, appended to, or recycled twice must be cleared and nothing
// more — pooling any of them would hand live memory to the next batch.
func TestRecycleBatchIgnoresWhatIsNotAWholeBatch(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s := NewKDSearcher(randPoints(r, 1000))
	qs := randPoints(r, 50)
	drainIdleBatches()

	res := s.RadiusBatch(qs, 1.0)
	RecycleBatch(res[:20]) // short: the rest is still the caller's
	if _, ok := idleBatches.Get(); ok {
		t.Fatal("a re-sliced batch was pooled")
	}
	for i, nbs := range res[:20] {
		if nbs != nil {
			t.Fatalf("entry %d of the re-sliced batch was not cleared", i)
		}
	}

	res = s.RadiusBatch(qs, 1.0)
	res = append(res, []kdtree.Neighbor{{Index: 1}}) // overwrites the mark in place
	RecycleBatch(res)
	if _, ok := idleBatches.Get(); ok {
		t.Fatal("a batch the caller appended to was pooled")
	}

	res = s.RadiusBatch(qs, 1.0)
	RecycleBatch(res)
	RecycleBatch(res)
	if _, ok := idleBatches.Get(); !ok {
		t.Fatal("a whole batch was not pooled")
	}
	if _, ok := idleBatches.Get(); ok {
		t.Fatal("recycling a batch twice pooled it twice")
	}
}

// TestBatchAnswersDoNotRunIntoEachOther: answers share an arena, so an
// answer's capacity must end where the next begins.
func TestBatchAnswersDoNotRunIntoEachOther(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	s := NewKDSearcher(randPoints(r, 1500))
	s.SetParallelism(1)
	res := s.RadiusBatch(randPoints(r, 200), 1.5)
	for i, nbs := range res {
		if cap(nbs) != len(nbs) {
			t.Fatalf("answer %d: cap %d > len %d", i, cap(nbs), len(nbs))
		}
	}
	want := append([]kdtree.Neighbor(nil), res[1]...)
	res[0] = append(res[0], kdtree.Neighbor{Index: -7})
	if !sameNeighbors(res[1], want) {
		t.Fatal("appending to one answer overwrote the next")
	}
	RecycleBatch(res)
}

// TestTwoStageScanLeavesFiledAnswersAlone: the two-stage radius scan
// writes each candidate one past the end of the answer it is building and
// keeps it only if it is inside the ball, so it works in the arena's tail
// beyond what it returns. Whatever the tail's size — nothing, less than a
// leaf set, exactly one, several — the answers already filed before it in
// the same arena must read, after the whole run, as the oracle gives them,
// and an answer that outgrew the tail must have moved whole.
func TestTwoStageScanLeavesFiledAnswersAlone(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	pts := randPoints(r, 3000)
	s := NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 5, Parallelism: 1})
	oracle := NewBruteSearcher(pts)
	queries := randPoints(r, 80)
	const radius = 4.0
	leaf := maxLeafSize(s.index)
	for _, capacity := range []int{0, 1, leaf - 1, leaf, leaf + 1, 2 * leaf, 5 * leaf, 64 * leaf} {
		arena := make([]kdtree.Neighbor, 0, capacity)
		filed := make([][]kdtree.Neighbor, len(queries))
		for i, q := range queries {
			filed[i] = fileResult(&arena, s.index.RadiusInto(q, radius, arenaTail(arena), nil))
		}
		answered := 0
		for i, q := range queries {
			want := oracle.Radius(q, radius)
			if !sameNeighbors(filed[i], want) {
				t.Fatalf("arena of %d: answer %d reads %v after the run, oracle %v", capacity, i, filed[i], want)
			}
			answered += len(want)
		}
		if answered < len(queries) {
			t.Fatalf("%d neighbours over %d queries: the radius exercises nothing", answered, len(queries))
		}
	}
}
