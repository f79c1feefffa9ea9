package kdtree

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// equivalenceClouds are the inputs the presort-built trees are held to
// the sort-built reference on: generic positions, heavy coordinate
// duplication (every split resolves ties by index), all points equal
// (every split is nothing but ties), signed zeros, and sizes around the
// builders' spawn threshold and the small windows split without a
// partition.
func equivalenceClouds() map[string][]geom.Vec3 {
	clouds := map[string][]geom.Vec3{}
	for _, n := range []int{0, 1, 2, 3, 12, 13, 14, buildSpawnMin - 1, buildSpawnMin, buildSpawnMin + 1} {
		clouds["random/"+strconv.Itoa(n)] = randomPoints(n, int64(n)+101)
	}
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{3, 500, buildSpawnMin + 1} {
		dup := make([]geom.Vec3, n)
		for i := range dup {
			// A 4×3×2 lattice: hundreds of points share every coordinate.
			dup[i] = geom.V3(float64(rng.Intn(4)), float64(rng.Intn(3)), float64(rng.Intn(2)))
		}
		clouds["duplicates/"+strconv.Itoa(n)] = dup
		same := make([]geom.Vec3, n)
		for i := range same {
			same[i] = geom.V3(1.5, -2.25, 0.125)
		}
		clouds["all-equal/"+strconv.Itoa(n)] = same
	}
	// Sorted and reverse-sorted inputs: the classic quickselect traps.
	asc := make([]geom.Vec3, 3000)
	for i := range asc {
		asc[i] = geom.V3(float64(i), float64(len(asc)-i), 0)
	}
	clouds["monotone/3000"] = asc
	// Signed zeros on every axis: −0 and +0 compare equal, so their order
	// is the index order, as for any other tie.
	for _, n := range []int{3, 500, buildSpawnMin + 1} {
		clouds["signed-zeros/"+strconv.Itoa(n)] = signedZeros(rng, n)
	}
	return clouds
}

// signedZeros returns n points whose coordinates are mostly −0 or +0,
// with a few ±1 so that the spreads differ by axis.
func signedZeros(rng *rand.Rand, n int) []geom.Vec3 {
	vals := []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 1, -1}
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V3(vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals)-2)], vals[rng.Intn(len(vals)-1)])
	}
	return pts
}

// TestSelectionBuildMatchesSortBuild: the tree built from presorted
// lists is the sort-built reference (seqBuild, the per-level sort.Slice
// construction) node for node, at every build width.
func TestSelectionBuildMatchesSortBuild(t *testing.T) {
	for name, pts := range equivalenceClouds() {
		want := seqBuild(append([]geom.Vec3(nil), pts...))
		for _, workers := range []int{1, 2, 8} {
			got := BuildSlabPar(cloud.SlabFromPoints(pts), workers)
			if got.root != want.root {
				t.Fatalf("%s workers=%d: root %d != %d", name, workers, got.root, want.root)
			}
			if !reflect.DeepEqual(got.nodes, want.nodes) {
				t.Fatalf("%s workers=%d: node layout differs from the sort-built reference", name, workers)
			}
		}
	}
}

// TestBuildSpawnDepthHonorsWorkers: one worker forks nothing; wider
// budgets fork to a depth that covers them.
func TestBuildSpawnDepthHonorsWorkers(t *testing.T) {
	if d := BuildSpawnDepth(1); d != 0 {
		t.Errorf("BuildSpawnDepth(1) = %d, want 0 (a pinned session must not spawn)", d)
	}
	for _, w := range []int{2, 3, 4, 8, 64} {
		if d := BuildSpawnDepth(w); 1<<d < w {
			t.Errorf("BuildSpawnDepth(%d) = %d forks fewer subtrees than workers", w, d)
		}
	}
}

// referenceOrder sorts idx by (col[i*stride], i) with sort.Slice — the
// comparator the builders used before the dedicated sort.
func referenceOrder[K Key](idx []int32, col []K, stride int) {
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := col[int(idx[a])*stride], col[int(idx[b])*stride]
		if ka != kb {
			return ka < kb
		}
		return idx[a] < idx[b]
	})
}

func shuffledIndex(rng *rand.Rand, n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// TestSortIndexMatchesReference drives SortIndex directly, on float32
// columns at stride 1 and float64 columns at a row stride (the feature
// tree), with coarse keys so ties are the common case.
func TestSortIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 12, 13, 50, 257, 2000} {
		for trial := 0; trial < 10; trial++ {
			levels := 1 + rng.Intn(6)
			col32 := make([]float32, n)
			for i := range col32 {
				col32[i] = float32(rng.Intn(levels))
			}
			const stride = 5
			col64 := make([]float64, n*stride)
			for i := 0; i < n; i++ {
				col64[i*stride] = float64(rng.Intn(levels))
			}

			want32 := shuffledIndex(rng, n)
			referenceOrder(want32, col32, 1)
			got := shuffledIndex(rng, n)
			SortIndex(got, col32, 1)
			if !reflect.DeepEqual(got, want32) {
				t.Fatalf("n=%d: SortIndex(float32) differs from the reference order", n)
			}
			want64 := shuffledIndex(rng, n)
			referenceOrder(want64, col64, stride)
			got = shuffledIndex(rng, n)
			SortIndex(got, col64, stride)
			if !reflect.DeepEqual(got, want64) {
				t.Fatalf("n=%d: SortIndex(float64, stride) differs from the reference order", n)
			}
		}
	}
}

// TestSortIndexSurvivesNaN: an inconsistent order may misplace
// elements but must neither hang nor index out of range.
func TestSortIndexSurvivesNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col := make([]float32, 500)
	nan := float32(0)
	nan /= nan
	for i := range col {
		col[i] = float32(rng.Intn(5))
		if rng.Intn(4) == 0 {
			col[i] = nan
		}
	}
	idx := shuffledIndex(rng, len(col))
	SortIndex(idx, col, 1)
	seen := make([]bool, len(col))
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("index %d duplicated", i)
		}
		seen[i] = true
	}
}

// nanSlabs are point sets with NaN coordinates — on one axis of some
// points, on two, on all three of every point — which ingest refuses: a
// build over one may split differently from the sort-built reference,
// whose comparisons NaN makes inconsistent, but it must finish and keep
// every point.
func nanSlabs() map[string]*cloud.Slab {
	nan := math.NaN()
	slabs := map[string]*cloud.Slab{}
	for _, n := range []int{1, 2, 3, 500, buildSpawnMin + 1} {
		rng := rand.New(rand.NewSource(int64(n)))
		one, some, all := make([]geom.Vec3, n), make([]geom.Vec3, n), make([]geom.Vec3, n)
		for i := range one {
			p := geom.V3(float64(rng.Intn(7)), rng.Float64(), float64(rng.Intn(3)))
			one[i], some[i] = p, p
			if rng.Intn(3) == 0 {
				one[i].Y = nan
			}
			if rng.Intn(4) == 0 {
				some[i].X = nan
			}
			if rng.Intn(4) == 0 {
				some[i].Z = math.Copysign(nan, -1)
			}
			all[i] = geom.V3(nan, nan, nan)
		}
		slabs["nan-y/"+strconv.Itoa(n)] = cloud.SlabFromPoints(one)
		slabs["nan-xz/"+strconv.Itoa(n)] = cloud.SlabFromPoints(some)
		slabs["nan-all/"+strconv.Itoa(n)] = cloud.SlabFromPoints(all)
	}
	return slabs
}

// TestBuildSurvivesNaN: on NaN-bearing slabs every build width finishes,
// and every point is exactly one node's, reachable from the root.
func TestBuildSurvivesNaN(t *testing.T) {
	for name, s := range nanSlabs() {
		for _, workers := range []int{1, 2, 8} {
			tree := BuildSlabPar(s, workers)
			seen := make([]bool, s.Len())
			var walk func(ni int32) int
			walk = func(ni int32) int {
				if ni < 0 {
					return 0
				}
				n := tree.nodes[ni]
				if seen[n.point] {
					t.Fatalf("%s workers=%d: point %d placed twice", name, workers, n.point)
				}
				seen[n.point] = true
				return 1 + walk(n.left) + walk(n.right)
			}
			if got := walk(tree.root); got != s.Len() {
				t.Fatalf("%s workers=%d: %d of %d points reachable", name, workers, got, s.Len())
			}
		}
	}
}

// TestBuildAllocatesOnlyItsNodes: with the build's scratch recycled, a
// warmed sequential build allocates the tree and its node array and
// nothing per level.
func TestBuildAllocatesOnlyItsNodes(t *testing.T) {
	skipUnderRace(t)
	s := cloud.SlabFromPoints(randomPoints(5000, 4))
	BuildSlabPar(s, 1)
	allocs := testing.AllocsPerRun(5, func() { BuildSlabPar(s, 1) })
	if allocs > 2 {
		t.Errorf("BuildSlabPar allocates %.1f times per build, want <= 2 (tree + nodes)", allocs)
	}
}
