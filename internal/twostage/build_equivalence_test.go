package twostage

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// equivalenceClouds mirrors the canonical tree's equivalence inputs:
// generic positions, heavy coordinate duplication, all points equal,
// signed zeros, and sizes around the spawn threshold.
func equivalenceClouds() map[string][]geom.Vec3 {
	clouds := map[string][]geom.Vec3{}
	for _, n := range []int{0, 1, 2, 3, buildSpawnMin - 1, buildSpawnMin, buildSpawnMin + 1} {
		clouds["random/"+strconv.Itoa(n)] = randomPts(n, int64(n)+211)
	}
	rng := rand.New(rand.NewSource(78))
	for _, n := range []int{3, 500, buildSpawnMin + 1} {
		dup := make([]geom.Vec3, n)
		for i := range dup {
			dup[i] = geom.V3(float64(rng.Intn(4)), float64(rng.Intn(3)), float64(rng.Intn(2)))
		}
		clouds["duplicates/"+strconv.Itoa(n)] = dup
		same := make([]geom.Vec3, n)
		for i := range same {
			same[i] = geom.V3(1.5, -2.25, 0.125)
		}
		clouds["all-equal/"+strconv.Itoa(n)] = same
	}
	// −0 and +0 on every axis: they compare equal, so their order is the
	// index order, as for any other tie. A few ±1 make the spreads differ
	// by axis.
	vals := []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 1, -1}
	for _, n := range []int{3, 500, buildSpawnMin + 1} {
		zeros := make([]geom.Vec3, n)
		for i := range zeros {
			zeros[i] = geom.V3(vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals)-2)], vals[rng.Intn(len(vals)-1)])
		}
		clouds["signed-zeros/"+strconv.Itoa(n)] = zeros
	}
	return clouds
}

// TestSelectionBuildMatchesSortBuild: the two-stage tree built from
// presorted lists is the sort-built reference (seqBuild) node for node
// and leaf for leaf, each leaf set in the reference's scan order — the
// order the accelerator model streams and the approximate search elects
// leaders in — at every top height and build width.
func TestSelectionBuildMatchesSortBuild(t *testing.T) {
	for name, pts := range equivalenceClouds() {
		for _, h := range []int{0, 1, 2, 5, 9, 30} {
			want := seqBuild(append([]geom.Vec3(nil), pts...), h)
			for _, workers := range []int{1, 2, 8} {
				got := BuildSlabPar(cloud.SlabFromPoints(pts), h, workers)
				if got.root != want.root {
					t.Fatalf("%s h=%d workers=%d: root %v != %v", name, h, workers, got.root, want.root)
				}
				if !reflect.DeepEqual(got.nodes, want.nodes) {
					t.Fatalf("%s h=%d workers=%d: top-tree differs from the sort-built reference", name, h, workers)
				}
				if len(got.leaves) != len(want.leaves) {
					t.Fatalf("%s h=%d workers=%d: %d leaf sets, reference has %d", name, h, workers, len(got.leaves), len(want.leaves))
				}
				gotSets, wantSets := got.Leaves(), want.Leaves()
				for id := range wantSets {
					if !reflect.DeepEqual(gotSets[id], wantSets[id]) {
						t.Fatalf("%s h=%d workers=%d: leaf set %d differs (contents or order)", name, h, workers, id)
					}
				}
			}
		}
	}
}

// TestLeafSetsDoNotOverlapInMemory: leaf sets are windows of one index
// array; a consumer appending to one must not run into its neighbor.
func TestLeafSetsDoNotOverlapInMemory(t *testing.T) {
	tree := Build(randomPts(1000, 17), 4)
	for id, set := range tree.Leaves() {
		if cap(set) != len(set) {
			t.Fatalf("leaf %d: cap %d > len %d exposes the next leaf's window", id, cap(set), len(set))
		}
	}
}

// TestBuildSurvivesNaN: on slabs with NaN coordinates, which ingest
// refuses, a build may split differently from the sort-built reference
// (NaN makes its comparisons inconsistent), but at every top height and
// width it finishes, its permutation holds every point once, and every
// point is either one top-tree node's or in one leaf set.
func TestBuildSurvivesNaN(t *testing.T) {
	nan := math.NaN()
	for _, n := range []int{1, 2, 3, 500, buildSpawnMin + 1} {
		rng := rand.New(rand.NewSource(int64(n)))
		pts := make([]geom.Vec3, n)
		for i := range pts {
			pts[i] = geom.V3(float64(rng.Intn(7)), rng.Float64(), float64(rng.Intn(3)))
			if rng.Intn(4) == 0 {
				pts[i].X = nan
			}
			if rng.Intn(3) == 0 {
				pts[i].Z = math.Copysign(nan, -1)
			}
		}
		s := cloud.SlabFromPoints(pts)
		for _, h := range []int{0, 1, 3, 30} {
			for _, workers := range []int{1, 2, 8} {
				tree := BuildSlabPar(s, h, workers)
				inPerm, placed := make([]bool, n), make([]int, n)
				for _, i := range tree.perm {
					if inPerm[i] {
						t.Fatalf("n=%d h=%d workers=%d: point %d twice in the permutation", n, h, workers, i)
					}
					inPerm[i] = true
				}
				for _, nd := range tree.nodes {
					placed[nd.Point]++
				}
				for _, set := range tree.Leaves() {
					for _, i := range set {
						placed[i]++
					}
				}
				for i, c := range placed {
					if c != 1 {
						t.Fatalf("n=%d h=%d workers=%d: point %d placed %d times", n, h, workers, i, c)
					}
				}
			}
		}
	}
}

// TestBuildAllocatesOnlyWhatItKeeps: with the build's scratch recycled, a
// warmed one-worker build allocates the five things the tree keeps — the
// tree, its top-tree nodes, its leaf runs, its permutation and the
// leaf-ordered coordinate block — and nothing per level; and when the
// tree before it was recycled, as a streaming session recycles each
// frame's (search.Recycle), the last four come back from the pools and
// only the tree itself is new.
func TestBuildAllocatesOnlyWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	s := cloud.SlabFromPoints(randomPts(5000, 4))
	h := HeightForLeafSize(s.Len(), 32)
	BuildSlabPar(s, h, 1)
	if allocs := testing.AllocsPerRun(5, func() { BuildSlabPar(s, h, 1) }); allocs > 5 {
		t.Errorf("BuildSlabPar allocates %.1f times per build, want <= 5 (tree, nodes, leaf runs, permutation, coordinates)", allocs)
	}
	BuildSlabPar(s, h, 1).Recycle()
	if allocs := testing.AllocsPerRun(5, func() { BuildSlabPar(s, h, 1).Recycle() }); allocs > 1 {
		t.Errorf("a build after a recycled one allocates %.1f times, want <= 1 (the tree)", allocs)
	}
}

// TestRecycledBuildMatchesFresh: a tree built into the arrays another
// tree handed back (poisoned under test) is the tree a fresh build makes,
// node for node and run for run, on a smaller and on a larger point set
// than the tree that held them.
func TestRecycledBuildMatchesFresh(t *testing.T) {
	for _, n := range []int{3900, 4050} {
		s := cloud.SlabFromPoints(randomPts(n, 9))
		h := HeightForLeafSize(n, 32)
		want := BuildSlabPar(s, h, 1)
		old := BuildSlabPar(cloud.SlabFromPoints(randomPts(4000, 10)), h, 1)
		perm, block := &old.perm[0], &old.lx[0]
		old.Recycle()
		got := BuildSlabPar(s, h, 1)
		if &got.perm[0] != perm || &got.lx[0] != block {
			t.Fatalf("n=%d: the build did not draw the recycled arrays", n)
		}
		if !reflect.DeepEqual(got.nodes, want.nodes) || !reflect.DeepEqual(got.leaves, want.leaves) ||
			!reflect.DeepEqual(got.perm, want.perm) || !reflect.DeepEqual(got.lx, want.lx) ||
			!reflect.DeepEqual(got.ly, want.ly) || !reflect.DeepEqual(got.lz, want.lz) {
			t.Errorf("n=%d: the build into recycled arrays differs from a fresh one", n)
		}
	}
}
