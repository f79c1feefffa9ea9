package twostage

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
)

// The leaf scans are held to the brute-force searches of internal/kdtree,
// which share nothing with the walks under test but the distance formula:
// they read the slab by index, in index order.

// scanCloud is a cloud built to tie: a quarter of the points are exact
// copies of earlier ones and z takes five values, so coordinates coincide
// on an axis and whole points coincide in a leaf.
func scanCloud(r *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		if i > 0 && r.Intn(4) == 0 {
			pts[i] = pts[r.Intn(i)]
			continue
		}
		pts[i] = geom.V3(r.Float64()*20-10, r.Float64()*20-10, float64(r.Intn(5)))
	}
	return pts
}

// scanQueries is every tree point (so queries sit exactly on points, and
// on their duplicates) followed by as many points off the cloud.
func scanQueries(r *rand.Rand, slab *cloud.Slab) []geom.Vec3 {
	qs := slab.Points()
	for i := slab.Len(); i > 0; i-- {
		qs = append(qs, geom.V3(r.Float64()*24-12, r.Float64()*24-12, r.Float64()*6-1))
	}
	return append(qs, geom.Vec3{})
}

// checkNearest compares one NN answer with the oracle's. Equidistant
// points are told apart by visiting order, which the oracle does not
// share, so the distance must be the oracle's bit for bit and the index
// must be a point at that distance.
func checkNearest(t *testing.T, where string, slab *cloud.Slab, q geom.Vec3, got kdtree.Neighbor, ok bool) {
	t.Helper()
	want, wantOK := kdtree.BruteNearestSlab(slab, q)
	if ok != wantOK {
		t.Fatalf("%s: q=%v: found=%v, oracle found=%v", where, q, ok, wantOK)
	}
	if !ok {
		return
	}
	if got.Dist2 != want.Dist2 || got.Index < 0 || got.Index >= slab.Len() || slab.Dist2(q, got.Index) != got.Dist2 {
		t.Fatalf("%s: q=%v: NN %+v, oracle %+v", where, q, got, want)
	}
}

// TestScansMatchBruteForceAtEveryHeight: NN and radius answers equal the
// oracle's at every top height from one leaf holding everything to leaves
// of a single point and beyond, for clouds of 0, 1 and 2 points and up,
// with duplicates, queries on tree points, and radii 0, ordinary and +Inf
// — through the tree and through an exact session alike.
func TestScansMatchBruteForceAtEveryHeight(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 257} {
		pts := scanCloud(r, n)
		for h := 0; h <= HeightForLeafSize(n, 1)+1; h++ {
			tree := Build(pts, h)
			slab := tree.Slab()
			sess := tree.NewApproxSession(ApproxOptions{})
			var buf []kdtree.Neighbor
			for _, q := range scanQueries(r, slab) {
				got, ok := tree.Nearest(q, nil)
				checkNearest(t, "tree", slab, q, got, ok)
				got, ok = sess.Nearest(q, nil)
				checkNearest(t, "session", slab, q, got, ok)
				for _, radius := range []float64{0, 1.5, math.Inf(1)} {
					want := kdtree.BruteRadiusIntoSlab(slab, q, radius, nil)
					buf = tree.RadiusInto(q, radius, buf, nil)
					if !slices.Equal(buf, want) {
						t.Fatalf("n=%d h=%d q=%v r=%v: tree radius\n got %v\nwant %v", n, h, q, radius, buf, want)
					}
					if got := sess.Radius(q, radius, nil); !slices.Equal(got, want) {
						t.Fatalf("n=%d h=%d q=%v r=%v: session radius\n got %v\nwant %v", n, h, q, radius, got, want)
					}
				}
			}
		}
	}
}

// TestRadiusScanKeepsToItsBuffer: the scan writes each candidate one past
// the answer's end before deciding whether it counts, so it must have
// reserved that room and must never reach past the buffer's capacity —
// where, in a batch arena, the header's next arena or foreign memory
// begins — nor before the buffer's start, where the previous query's
// answer lies. Buffers: nil, empty, shorter than a leaf, exactly one leaf,
// one short of and one past it, and roomy; each sits inside a larger array
// of canaries.
func TestRadiusScanKeepsToItsBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	pts := scanCloud(r, 600)
	canary := kdtree.Neighbor{Index: -99, Dist2: -1}
	for _, h := range []int{0, 3, 6} {
		tree := Build(pts, h)
		slab := tree.Slab()
		leaf := maxLeafSize(tree)
		queries := scanQueries(r, slab)[slab.Len()-40 : slab.Len()+40]
		for _, capacity := range []int{-1, 0, 1, leaf - 1, leaf, leaf + 1, 3 * leaf, 4 * len(pts)} {
			const before = 8
			backing := make([]kdtree.Neighbor, before+max(capacity, 0)+before)
			for _, q := range queries {
				for _, radius := range []float64{0, 1.5, 4, math.Inf(1)} {
					for i := range backing {
						backing[i] = canary
					}
					var buf []kdtree.Neighbor
					if capacity >= 0 {
						buf = backing[before : before : before+capacity]
					}
					got := tree.RadiusInto(q, radius, buf, nil)
					if want := kdtree.BruteRadiusIntoSlab(slab, q, radius, nil); !slices.Equal(got, want) {
						t.Fatalf("h=%d cap=%d q=%v r=%v:\n got %v\nwant %v", h, capacity, q, radius, got, want)
					}
					for i := range backing {
						if inside := i >= before && i < before+capacity; !inside && backing[i] != canary {
							t.Fatalf("h=%d cap=%d q=%v r=%v: wrote outside the buffer, at %d of [%d,%d)", h, capacity, q, radius, i, before, before+capacity)
						}
					}
				}
			}
		}
	}
}

// TestLeadersCacheTheLeafLocalBest: a leader's cached NN result is the
// nearest point of its leaf — the first such in the leaf's stored order —
// whether or not the leaf improved on the bound the query arrived with
// (when it did not, the bounded scan found nothing and the leader takes
// the leaf minimum the same pass found).
func TestLeadersCacheTheLeafLocalBest(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	pts := scanCloud(r, 3000)
	tree := BuildWithLeafSize(pts, 32)
	slab, sets := tree.Slab(), tree.Leaves()
	sess := tree.NewApproxSession(ApproxOptions{Threshold: 0.4})
	for _, q := range scanQueries(r, slab)[slab.Len()-300 : slab.Len()+300] {
		sess.Nearest(q, nil)
	}
	leaders, unimproved := 0, 0
	for id, group := range sess.nn {
		for _, ld := range group {
			want := kdtree.Neighbor{Index: -1, Dist2: math.MaxFloat64}
			for _, pi := range sets[id] {
				if d2 := slab.Dist2(ld.q, int(pi)); d2 < want.Dist2 {
					want = kdtree.Neighbor{Index: int(pi), Dist2: d2}
				}
			}
			if ld.res != want {
				t.Fatalf("leaf %d leader %v: cached %+v, leaf-local best %+v", id, ld.q, ld.res, want)
			}
			leaders++
			if exact, _ := kdtree.BruteNearestSlab(slab, ld.q); exact.Dist2 < want.Dist2 {
				unimproved++
			}
		}
	}
	if leaders == 0 || unimproved == 0 {
		t.Fatalf("%d leaders, %d in leaves that did not hold their NN: the workload misses a case", leaders, unimproved)
	}
}

// statsFixture is the tree and queries the recorded counts below belong
// to: a fixed top height, so the counts depend on no leaf-size default.
func statsFixture() (*Tree, []geom.Vec3) {
	r := rand.New(rand.NewSource(30))
	pts := randPoints(r, 4000)
	queries := make([]geom.Vec3, 200)
	for i := range queries {
		queries[i] = pts[r.Intn(len(pts))].Add(geom.V3(r.Float64()-0.5, r.Float64()-0.5, r.Float64()-0.5))
	}
	return Build(pts, 8), queries
}

// TestStatsEqualTheGatherScans: what a query counts is what it counted
// when leaf sets were gathered through their indices — the first queries'
// counts one by one and the stream's totals, recorded at the commit before
// the scans became streams (visited, pruned, leaf points viewed).
func TestStatsEqualTheGatherScans(t *testing.T) {
	tree, queries := statsFixture()
	const radius = 6.0
	wantNN := [][3]int64{{9, 7, 44}, {8, 8, 14}, {8, 8, 14}, {8, 8, 15}, {8, 8, 15}, {12, 10, 44}}
	wantRadius := [][3]int64{{18, 12, 100}, {26, 18, 133}, {17, 8, 146}, {18, 11, 116}, {18, 13, 88}, {24, 15, 147}}
	wantNNTotal := Stats{TopNodesVisited: 1730, TopNodesPruned: 1650, LeafPointsViewed: 4108, Queries: 200}
	wantRadiusTotal := Stats{TopNodesVisited: 3427, TopNodesPruned: 2098, LeafPointsViewed: 22388, Queries: 200}

	var nnTotal, radiusTotal Stats
	for i, q := range queries {
		var nn, rad Stats
		tree.Nearest(q, &nn)
		tree.Radius(q, radius, &rad)
		if i < len(wantNN) {
			if got := [3]int64{nn.TopNodesVisited, nn.TopNodesPruned, nn.LeafPointsViewed}; got != wantNN[i] {
				t.Errorf("query %d: NN counted %v, the gather scan %v", i, got, wantNN[i])
			}
			if got := [3]int64{rad.TopNodesVisited, rad.TopNodesPruned, rad.LeafPointsViewed}; got != wantRadius[i] {
				t.Errorf("query %d: radius counted %v, the gather scan %v", i, got, wantRadius[i])
			}
		}
		nnTotal.Merge(nn)
		radiusTotal.Merge(rad)
	}
	if nnTotal != wantNNTotal {
		t.Errorf("NN stream counted %+v, the gather scan %+v", nnTotal, wantNNTotal)
	}
	if radiusTotal != wantRadiusTotal {
		t.Errorf("radius stream counted %+v, the gather scan %+v", radiusTotal, wantRadiusTotal)
	}
}
