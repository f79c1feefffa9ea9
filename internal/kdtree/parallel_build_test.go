package kdtree

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// seqBuild is the original sequential append-order construction, kept as
// the layout oracle for the parallel builder.
func seqBuild(pts []geom.Vec3) *Tree {
	s := cloud.SlabFromPoints(pts)
	t := &Tree{slab: s, xs: s.Xs, ys: s.Ys, zs: s.Zs}
	if len(pts) > 0 {
		t.nodes = make([]node, 0, len(pts))
	}
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	t.root = seqBuildRec(t, idx)
	return t
}

func seqBuildRec(t *Tree, idx []int32) int32 {
	if len(idx) == 0 {
		return -1
	}
	axis, ax := spreadAxis(t.xs, t.ys, t.zs, idx)
	sort.Slice(idx, func(a, b int) bool {
		pa := ax[idx[a]]
		pb := ax[idx[b]]
		if pa != pb {
			return pa < pb
		}
		return idx[a] < idx[b]
	})
	mid := len(idx) / 2
	n := node{
		point: idx[mid],
		axis:  int8(axis),
		split: float64(ax[idx[mid]]),
		left:  -1,
		right: -1,
	}
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, n)
	left := seqBuildRec(t, idx[:mid])
	right := seqBuildRec(t, idx[mid+1:])
	t.nodes[self].left = left
	t.nodes[self].right = right
	return self
}

// spreadAxis is the reference's split-axis policy, scanned rather than
// read off presorted lists: the axis of largest coordinate spread over
// the indexed points (non-empty), the lowest on a tie, and its slab.
func spreadAxis(xs, ys, zs []float32, idx []int32) (axis int, col []float32) {
	lox, hix := xs[idx[0]], xs[idx[0]]
	loy, hiy := ys[idx[0]], ys[idx[0]]
	loz, hiz := zs[idx[0]], zs[idx[0]]
	for _, i := range idx[1:] {
		if v := xs[i]; v < lox {
			lox = v
		} else if v > hix {
			hix = v
		}
		if v := ys[i]; v < loy {
			loy = v
		} else if v > hiy {
			hiy = v
		}
		if v := zs[i]; v < loz {
			loz = v
		} else if v > hiz {
			hiz = v
		}
	}
	sx, sy, sz := hix-lox, hiy-loy, hiz-loz
	switch {
	case sx >= sy && sx >= sz:
		return 0, xs
	case sy >= sz:
		return 1, ys
	default:
		return 2, zs
	}
}

func randomPoints(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V3(rng.Float64()*50, rng.Float64()*50, rng.Float64()*5)
	}
	return pts
}

// TestParallelBuildLayoutIdentical asserts the parallel Build produces
// the exact preorder node array of the sequential construction, at sizes
// both below and well above the spawn threshold.
func TestParallelBuildLayoutIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000, buildSpawnMin * 4} {
		pts := randomPoints(n, int64(n)+3)
		got := Build(pts)
		want := seqBuild(append([]geom.Vec3(nil), pts...))
		if got.root != want.root {
			t.Fatalf("n=%d: root %d != %d", n, got.root, want.root)
		}
		if !reflect.DeepEqual(got.nodes, want.nodes) {
			t.Fatalf("n=%d: parallel build layout differs from sequential", n)
		}
	}
}

// TestParallelBuildSearchEquivalence cross-checks search results between
// parallel-built and sequential-built trees, including visit counts —
// the instrumentation the baseline models consume must not shift.
func TestParallelBuildSearchEquivalence(t *testing.T) {
	pts := randomPoints(buildSpawnMin*2, 9)
	queries := randomPoints(200, 10)
	par := Build(pts)
	seq := seqBuild(append([]geom.Vec3(nil), pts...))
	var sp, ss Stats
	for _, q := range queries {
		a, _ := par.Nearest(q, &sp)
		b, _ := seq.Nearest(q, &ss)
		if a != b {
			t.Fatalf("nearest mismatch: %+v vs %+v", a, b)
		}
		ra := par.Radius(q, 1.5, &sp)
		rb := seq.Radius(q, 1.5, &ss)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("radius mismatch at %v", q)
		}
	}
	if sp != ss {
		t.Fatalf("stats diverged: %+v vs %+v", sp, ss)
	}
}
