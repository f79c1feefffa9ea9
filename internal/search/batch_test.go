package search

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/twostage"
)

// The optional NearestBatchInto fast path is reached by a type assertion
// (BatchNearestInto), and the exported searchers get it, like the rest of
// their methods, promoted from the one implementation they embed: a
// method that dropped out of a method set would compile, and ICP would
// fall back to the allocating path unnoticed.
var (
	_ nearestInto = (*KDSearcher)(nil)
	_ nearestInto = (*TwoStageSearcher)(nil)
	_ nearestInto = (*BruteSearcher)(nil)
	_ nearestInto = (*TraceSearcher)(nil)
	_ Searcher    = (*KDSearcher)(nil)
	_ Searcher    = (*TwoStageSearcher)(nil)
	_ Searcher    = (*BruteSearcher)(nil)
	_ Searcher    = (*TraceSearcher)(nil)
)

// backendCase builds a fresh searcher over pts; fresh instances per call
// keep per-instance metrics and approximate leader state independent.
type backendCase struct {
	name  string
	exact bool // batch must be bit-identical to per-query calls
	// direct: the answers are the index's own, so every direct exact
	// backend must give the same ones and count the same queries.
	direct bool
	build  func(pts []geom.Vec3) Searcher
}

func backendCases() []backendCase {
	return []backendCase{
		{"canonical", true, true, func(pts []geom.Vec3) Searcher {
			return NewKDSearcher(pts)
		}},
		{"twostage-exact", true, true, func(pts []geom.Vec3) Searcher {
			return NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 5})
		}},
		{"bruteforce", true, true, func(pts []geom.Vec3) Searcher {
			return NewBruteSearcher(pts)
		}},
		{"twostage-approx", false, true, func(pts []geom.Vec3) Searcher {
			return NewTwoStageSearcher(pts, TwoStageConfig{
				TopHeight: 5,
				Approx:    &twostage.ApproxOptions{Threshold: 1.2, RadiusThresholdFrac: 0.4},
			})
		}},
		{"kthnn-inject", true, false, func(pts []geom.Vec3) Searcher {
			return &KthNNSearcher{Searcher: NewKDSearcher(pts), K: 3}
		}},
		{"shell-inject", true, false, func(pts []geom.Vec3) Searcher {
			return &ShellSearcher{Searcher: NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 4}), R1: 0.5, R2: 2.5}
		}},
	}
}

func sameNeighbor(a, b kdtree.Neighbor) bool {
	return a.Index == b.Index && a.Dist2 == b.Dist2
}

func sameNeighbors(a, b []kdtree.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameNeighbor(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestBatchMatchesSequential is the core equivalence table: for every
// exact backend and every parallelism, the batch methods must return
// bit-identical results to per-query calls on a fresh instance — and the
// direct ones (a tree or the scan, nothing injected) the same answers and
// the same query count as each other, also where there is nothing to
// find: an empty ball (r < 0 is not |r|), k = 0, k past the cloud, and an
// index over no points, where a call is still a query that visits nothing.
func TestBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	qs := randPoints(r, 400)
	type answers struct {
		nn       []kdtree.Neighbor
		knn, rad [][]kdtree.Neighbor
		queries  int64
	}
	for _, tc := range []struct {
		name   string
		pts    []geom.Vec3
		radius float64
		k      int
	}{
		{"ordinary", randPoints(r, 1500), 2.0, 6},
		{"r=-1 k=0", randPoints(r, 500), -1, 0},
		{"k>n", randPoints(r, 500), 2.0, 600},
		{"empty index", nil, 2.0, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var direct *answers // the first direct backend's, which the others must repeat
			for _, bc := range backendCases() {
				if !bc.exact {
					continue
				}
				// Sequential reference on its own instance.
				ref := bc.build(tc.pts)
				want := answers{
					nn:  make([]kdtree.Neighbor, len(qs)),
					knn: make([][]kdtree.Neighbor, len(qs)),
					rad: make([][]kdtree.Neighbor, len(qs)),
				}
				for i, q := range qs {
					nb, ok := ref.Nearest(q)
					if !ok {
						nb = kdtree.Neighbor{Index: -1}
					}
					want.nn[i] = nb
					want.knn[i] = ref.KNearest(q, tc.k)
					want.rad[i] = ref.Radius(q, tc.radius)
				}
				want.queries = ref.Metrics().Queries
				check := func(who string, got answers) {
					t.Helper()
					for i := range qs {
						if !sameNeighbor(got.nn[i], want.nn[i]) {
							t.Fatalf("%s: Nearest[%d] = %+v, %s has %+v", who, i, got.nn[i], bc.name, want.nn[i])
						}
						if !sameNeighbors(got.knn[i], want.knn[i]) {
							t.Fatalf("%s: KNearest[%d] has %d neighbours, %s has %d", who, i, len(got.knn[i]), bc.name, len(want.knn[i]))
						}
						if !sameNeighbors(got.rad[i], want.rad[i]) {
							t.Fatalf("%s: Radius[%d] has %d neighbours, %s has %d", who, i, len(got.rad[i]), bc.name, len(want.rad[i]))
						}
					}
					if bc.direct && got.queries != want.queries {
						t.Fatalf("%s counted %d queries, %s %d", who, got.queries, bc.name, want.queries)
					}
				}
				if bc.direct {
					if direct == nil {
						direct = &want
						if want.queries != int64(3*len(qs)) {
							t.Fatalf("%s counted %d queries for %d calls", bc.name, want.queries, 3*len(qs))
						}
					}
					check("the first direct backend", *direct)
				}
				for _, parallelism := range []int{1, 2, 8} {
					s := bc.build(tc.pts)
					s.SetParallelism(parallelism)
					got := answers{nn: s.NearestBatch(qs), knn: s.KNearestBatch(qs, tc.k), rad: s.RadiusBatch(qs, tc.radius)}
					got.queries = s.Metrics().Queries
					check(fmt.Sprintf("batches at parallelism %d", parallelism), got)
				}
			}
		})
	}
}

// TestRadiusBatchOrderIndependentOfTheSort: every backend's radius answers
// end in kdtree.SortNeighbors — the brute-force oracle's too, so comparing
// a tree with it cannot see an ordering bug. Batches answer into arena
// tails, which is where the sort deals instead of comparing; this holds
// each batched answer to sort.Slice under (Dist2, Index), on ordinary
// queries, with an unbounded radius, and from a query so far off that
// every squared distance overflows (all points, in index order).
func TestRadiusBatchOrderIndependentOfTheSort(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	pts := randPoints(r, 1500)
	far := geom.Vec3{X: 1e200, Y: 1e200, Z: -1e200}
	for _, bc := range backendCases()[:4] {
		for _, parallelism := range []int{1, 2} {
			s := bc.build(pts)
			s.SetParallelism(parallelism)
			for _, probe := range []struct {
				qs     []geom.Vec3
				radius float64
			}{
				{randPoints(r, 300), 3.0},
				{[]geom.Vec3{pts[0], far, pts[1]}, math.Inf(1)},
			} {
				res := s.RadiusBatch(probe.qs, probe.radius)
				for i, got := range res {
					want := append([]kdtree.Neighbor(nil), got...)
					sort.Slice(want, func(a, b int) bool {
						if want[a].Dist2 != want[b].Dist2 {
							return want[a].Dist2 < want[b].Dist2
						}
						return want[a].Index < want[b].Index
					})
					if !sameNeighbors(got, want) {
						t.Fatalf("%s/p%d: RadiusBatch[%d] at r=%v is not in (Dist2, Index) order", bc.name, parallelism, i, probe.radius)
					}
					if math.IsInf(probe.radius, 1) && bc.exact && len(got) != len(pts) {
						t.Fatalf("%s/p%d: unbounded RadiusBatch[%d] has %d of %d points", bc.name, parallelism, i, len(got), len(pts))
					}
				}
				RecycleBatch(res)
			}
		}
	}
}

// TestApproxBatchDeterministic: the approximate backend's batch results
// must depend only on the query batch — not on the Parallelism knob or
// goroutine scheduling — and must equal a serial per-chunk-session replay
// of the same algorithm.
func TestApproxBatchDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pts := randPoints(r, 4000)
	// Clustered queries so followers actually occur.
	qs := make([]geom.Vec3, 900)
	for i := range qs {
		base := pts[r.Intn(len(pts))]
		qs[i] = base.Add(geom.Vec3{X: r.Float64()*0.4 - 0.2, Y: r.Float64()*0.4 - 0.2})
	}
	opts := twostage.ApproxOptions{Threshold: 1.2, RadiusThresholdFrac: 0.4}
	build := func() *TwoStageSearcher {
		return NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 5, Approx: &opts})
	}
	const radius = 1.5

	// Serial reference: one fresh session per ApproxBatchChunk queries,
	// exactly the contract approx.go documents.
	refTree := build().Tree()
	wantNN := make([]kdtree.Neighbor, len(qs))
	wantRad := make([][]kdtree.Neighbor, len(qs))
	for lo := 0; lo < len(qs); lo += ApproxBatchChunk {
		hi := lo + ApproxBatchChunk
		if hi > len(qs) {
			hi = len(qs)
		}
		nnSess := refTree.NewApproxSession(opts)
		for i := lo; i < hi; i++ {
			wantNN[i], _ = nnSess.Nearest(qs[i], nil)
		}
		radSess := refTree.NewApproxSession(opts)
		for i := lo; i < hi; i++ {
			wantRad[i] = radSess.Radius(qs[i], radius, nil)
		}
	}

	for _, parallelism := range []int{1, 3, 8} {
		s := build()
		s.SetParallelism(parallelism)
		gotNN := s.NearestBatch(qs)
		gotRad := s.RadiusBatch(qs, radius)
		for i := range qs {
			if !sameNeighbor(gotNN[i], wantNN[i]) {
				t.Fatalf("p%d: approx NearestBatch[%d] = %+v, want %+v",
					parallelism, i, gotNN[i], wantNN[i])
			}
			if !sameNeighbors(gotRad[i], wantRad[i]) {
				t.Fatalf("p%d: approx RadiusBatch[%d] mismatch", parallelism, i)
			}
		}
		if s.Stats().FollowerHits == 0 {
			t.Errorf("p%d: expected follower hits in approximate batch", parallelism)
		}
	}
}

// TestBatchMetricsMerge: the per-worker stats shards must merge into the
// same totals the sequential path records — queries always, and visit
// counts exactly for the exact backends.
func TestBatchMetricsMerge(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts := randPoints(r, 1000)
	qs := randPoints(r, 300)

	for _, bc := range backendCases() {
		ref := bc.build(pts)
		for _, q := range qs {
			ref.Radius(q, 1.5)
			ref.Nearest(q)
		}
		refM := ref.Metrics()

		s := bc.build(pts)
		s.SetParallelism(8)
		s.RadiusBatch(qs, 1.5)
		s.NearestBatch(qs)
		m := s.Metrics()

		// The error-injection wrappers issue a different number of inner
		// queries per Nearest (KNearest under the hood); only compare
		// query counts on the direct backends.
		if bc.exact && bc.direct {
			if m.Queries != refM.Queries {
				t.Errorf("%s: batch queries %d, sequential %d", bc.name, m.Queries, refM.Queries)
			}
			if m.NodesVisited != refM.NodesVisited {
				t.Errorf("%s: batch visits %d, sequential %d", bc.name, m.NodesVisited, refM.NodesVisited)
			}
		}
		if m.Queries <= 0 || m.NodesVisited <= 0 {
			t.Errorf("%s: empty merged metrics: %+v", bc.name, m)
		}
		if m.SearchTime <= 0 {
			t.Errorf("%s: batch wall time not recorded", bc.name)
		}
	}
}

// TestBatchEmptyAndTiny covers the degenerate shapes: empty query slices,
// empty trees, and batches smaller than the worker pool.
func TestBatchEmptyAndTiny(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	pts := randPoints(r, 50)
	for _, bc := range backendCases() {
		s := bc.build(pts)
		s.SetParallelism(8)
		if got := s.NearestBatch(nil); len(got) != 0 {
			t.Errorf("%s: NearestBatch(nil) returned %d results", bc.name, len(got))
		}
		if got := s.RadiusBatch([]geom.Vec3{{}}, 1); len(got) != 1 {
			t.Errorf("%s: single-query batch size %d", bc.name, len(got))
		}
		// A negative radius is an empty ball on every index, the
		// approximate session's included.
		if bc.direct && len(s.Radius(pts[0], -1))+len(s.RadiusBatch(pts[:1], -1)[0]) != 0 {
			t.Errorf("%s: a point within r = -1 of a query", bc.name)
		}
	}
	// Empty tree: every NearestBatch entry is a miss.
	empty := NewKDSearcher(nil)
	empty.SetParallelism(4)
	for _, nb := range empty.NearestBatch(randPoints(r, 5)) {
		if nb.Index >= 0 {
			t.Errorf("empty tree returned hit %+v", nb)
		}
	}
}

// TestSetParallelismResolution: the knob resolves like par.Workers.
func TestSetParallelismResolution(t *testing.T) {
	s := NewKDSearcher(randPoints(rand.New(rand.NewSource(15)), 10))
	s.SetParallelism(3)
	if s.Parallelism() != 3 {
		t.Errorf("Parallelism() = %d, want 3", s.Parallelism())
	}
	s.SetParallelism(0)
	if s.Parallelism() < 1 {
		t.Errorf("Parallelism() = %d, want >= 1", s.Parallelism())
	}
}

// TestApproxWorkersDoNotShareALine: the approximate backend's per-worker
// stats shards live side by side in the searcher and are counted into
// once per visited node, so a cache line's worth of padding must follow
// each (the exact backends' shards are par.Sharded's, tested there).
func TestApproxWorkersDoNotShareALine(t *testing.T) {
	var aw approxWorker
	end := unsafe.Offsetof(aw.stats) + unsafe.Sizeof(aw.stats)
	if gap := unsafe.Sizeof(aw) - end; gap < 64 {
		t.Fatalf("%d bytes between one worker's stats shard and the next worker's state", gap)
	}
}
