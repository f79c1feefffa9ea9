package twostage

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// equivalenceClouds mirrors the canonical tree's equivalence inputs:
// generic positions, heavy coordinate duplication, all points equal, and
// sizes around the spawn threshold.
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
	return clouds
}

// TestSelectionBuildMatchesSortBuild: the selection-built two-stage tree
// is the sort-built reference (seqBuild) node for node and leaf for leaf,
// each leaf set in the reference's scan order — the order the
// accelerator model streams and the approximate search elects leaders
// in — at every top height and build width.
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
