package twostage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// seqBuild is the original sequential append-order construction, kept as
// the layout oracle for the offset-addressed parallel builder. Its
// permutation is its leaf sets back to back, in leaf order.
func seqBuild(pts []geom.Vec3, topHeight int) *Tree {
	if topHeight < 0 {
		topHeight = 0
	}
	s := cloud.SlabFromPoints(pts)
	t := &Tree{slab: s, xs: s.Xs, ys: s.Ys, zs: s.Zs, height: topHeight}
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	t.root = seqBuildRec(t, idx, 0)
	t.orderCoordinates()
	return t
}

func seqBuildRec(t *Tree, idx []int32, depth int) Child {
	if len(idx) == 0 {
		return ChildNone
	}
	if depth >= t.height {
		id := len(t.leaves)
		lo := int32(len(t.perm))
		t.perm = append(t.perm, idx...)
		t.leaves = append(t.leaves, leafRun{lo, int32(len(t.perm))})
		return encodeLeaf(id)
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
	self := len(t.nodes)
	t.nodes = append(t.nodes, Node{
		Point: idx[mid],
		Axis:  int8(axis),
		Split: float64(ax[idx[mid]]),
		Left:  ChildNone,
		Right: ChildNone,
	})
	left := seqBuildRec(t, idx[:mid], depth+1)
	right := seqBuildRec(t, idx[mid+1:], depth+1)
	t.nodes[self].Left = left
	t.nodes[self].Right = right
	return Child(self)
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

func randomPts(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V3(rng.Float64()*50, rng.Float64()*50, rng.Float64()*5)
	}
	return pts
}

// TestParallelBuildLayoutIdentical asserts the parallel Build reproduces
// the sequential construction exactly — node slots, child links, leaf
// ids, and leaf-set contents — across sizes and top heights including
// degenerate ones (height 0, height deeper than the point count).
func TestParallelBuildLayoutIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 33, 1000, buildSpawnMin * 4} {
		for _, h := range []int{0, 1, 3, 8, 30} {
			pts := randomPts(n, int64(n*31+h))
			got := Build(pts, h)
			want := seqBuild(append([]geom.Vec3(nil), pts...), h)
			if got.root != want.root {
				t.Fatalf("n=%d h=%d: root %v != %v", n, h, got.root, want.root)
			}
			if !reflect.DeepEqual(got.nodes, want.nodes) {
				t.Fatalf("n=%d h=%d: node layout differs", n, h)
			}
			if len(got.leaves) != len(want.leaves) {
				t.Fatalf("n=%d h=%d: %d leaves != %d", n, h, len(got.leaves), len(want.leaves))
			}
			if !reflect.DeepEqual(got.Leaves(), want.Leaves()) {
				t.Fatalf("n=%d h=%d: leaf sets differ", n, h)
			}
		}
	}
}

// TestParallelBuildSearchEquivalence cross-checks searches and their
// instrumentation between parallel- and sequential-built trees.
func TestParallelBuildSearchEquivalence(t *testing.T) {
	pts := randomPts(buildSpawnMin*2, 5)
	queries := randomPts(200, 6)
	par := Build(pts, 6)
	seq := seqBuild(append([]geom.Vec3(nil), pts...), 6)
	var sp, ss Stats
	for _, q := range queries {
		a, _ := par.Nearest(q, &sp)
		b, _ := seq.Nearest(q, &ss)
		if a != b {
			t.Fatalf("nearest mismatch: %+v vs %+v", a, b)
		}
		if !reflect.DeepEqual(par.Radius(q, 1.5, &sp), seq.Radius(q, 1.5, &ss)) {
			t.Fatalf("radius mismatch at %v", q)
		}
	}
	if sp != ss {
		t.Fatalf("stats diverged: %+v vs %+v", sp, ss)
	}
}
