package kdtree

import (
	"math/rand"
	"testing"

	"tigris/internal/geom"
)

// The traversal hot path must not allocate: a streaming session issues
// millions of queries per frame forever, so any per-query allocation is a
// steady-state leak of GC bandwidth. These assertions pin the
// zero-allocation property for every query kind when the caller recycles
// its result slab (the pipeline stages do, through the search-layer slab
// pool).

func allocTree(n int, seed int64) (*Tree, []geom.Vec3) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{X: rng.Float64() * 20, Y: rng.Float64() * 20, Z: rng.Float64() * 5}
	}
	return Build(pts), pts
}

func TestNearestZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	tree, pts := allocTree(4000, 11)
	var stats Stats
	q := pts[17]
	allocs := testing.AllocsPerRun(200, func() {
		tree.Nearest(q, &stats)
	})
	if allocs != 0 {
		t.Errorf("Nearest allocates %.1f times per query, want 0", allocs)
	}
}

func TestRadiusIntoZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	tree, pts := allocTree(4000, 12)
	var stats Stats
	q := pts[42]
	// Warm the slab to the neighborhood size once; afterwards RadiusInto
	// (including its result sort) must be allocation-free.
	buf := tree.RadiusInto(q, 2.0, nil, &stats)
	allocs := testing.AllocsPerRun(200, func() {
		buf = tree.RadiusInto(q, 2.0, buf[:0], &stats)
	})
	if allocs != 0 {
		t.Errorf("RadiusInto allocates %.1f times per query, want 0", allocs)
	}
	if len(buf) == 0 {
		t.Fatal("radius query found nothing; the assertion exercised no work")
	}
}

func TestKNearestIntoZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	tree, pts := allocTree(4000, 13)
	var stats Stats
	q := pts[99]
	buf := tree.KNearestInto(q, 16, nil, &stats)
	allocs := testing.AllocsPerRun(200, func() {
		buf = tree.KNearestInto(q, 16, buf[:0], &stats)
	})
	if allocs != 0 {
		t.Errorf("KNearestInto allocates %.1f times per query, want 0", allocs)
	}
	if len(buf) != 16 {
		t.Fatalf("k-NN returned %d results, want 16", len(buf))
	}
}

func TestBruteRadiusIntoZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	tree, pts := allocTree(2000, 14)
	q := pts[7]
	buf := BruteRadiusIntoSlab(tree.Slab(), q, 2.0, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = BruteRadiusIntoSlab(tree.Slab(), q, 2.0, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("BruteRadiusIntoSlab allocates %.1f times per query, want 0", allocs)
	}
}

// skipUnderRace skips allocation-budget tests when the race detector's
// shadow allocations would break AllocsPerRun.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
}
