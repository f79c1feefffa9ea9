package twostage

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tigris/internal/geom"
)

// treeCase is a random bounded tree + query scenario for quick checks.
type treeCase struct {
	Pts    []geom.Vec3
	Height int
	Query  geom.Vec3
	R      float64
}

// Generate implements quick.Generator.
func (treeCase) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(300)
	pts := make([]geom.Vec3, n)
	for i := range pts {
		// Pre-snapped to float32 so the tree stores exactly these values
		// and the AoS brute-force oracle stays bit-identical.
		pts[i] = geom.Vec3{
			X: r.Float64()*40 - 20,
			Y: r.Float64()*40 - 20,
			Z: r.Float64()*8 - 4,
		}.Quantize32()
	}
	return reflect.ValueOf(treeCase{
		Pts:    pts,
		Height: r.Intn(12),
		Query:  geom.Vec3{X: r.Float64()*50 - 25, Y: r.Float64()*50 - 25, Z: r.Float64()*10 - 5},
		R:      r.Float64() * 8,
	})
}

func TestQuickTwoStageNNEqualsBrute(t *testing.T) {
	f := func(tc treeCase) bool {
		tree := Build(tc.Pts, tc.Height)
		nb, ok := tree.Nearest(tc.Query, nil)
		if !ok {
			return false
		}
		best := math.MaxFloat64
		for _, p := range tc.Pts {
			if d := tc.Query.Dist2(p); d < best {
				best = d
			}
		}
		return math.Abs(nb.Dist2-best) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickTwoStageRadiusEqualsBrute(t *testing.T) {
	f := func(tc treeCase) bool {
		tree := Build(tc.Pts, tc.Height)
		res := tree.Radius(tc.Query, tc.R, nil)
		want := 0
		r2 := tc.R * tc.R
		for _, p := range tc.Pts {
			if tc.Query.Dist2(p) <= r2 {
				want++
			}
		}
		return len(res) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickPartitionInvariant(t *testing.T) {
	// Structural invariant: top-tree node points plus all leaf-set points
	// partition the input exactly (every index once).
	f := func(tc treeCase) bool {
		tree := Build(tc.Pts, tc.Height)
		seen := make([]bool, len(tc.Pts))
		count := 0
		for _, n := range tree.nodes {
			if seen[n.Point] {
				return false
			}
			seen[n.Point] = true
			count++
		}
		for _, leaf := range tree.Leaves() {
			for _, pi := range leaf {
				if seen[pi] {
					return false
				}
				seen[pi] = true
				count++
			}
		}
		return count == len(tc.Pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitPlaneInvariant(t *testing.T) {
	// Every top-tree node's split plane must separate its subtrees: all
	// points reachable on the left have coordinate <= split (ties allowed
	// by the median split), all on the right >= split.
	f := func(tc treeCase) bool {
		tree := Build(tc.Pts, tc.Height)
		ok := true
		var collect func(c Child) []int32
		collect = func(c Child) []int32 {
			switch {
			case c == childNone:
				return nil
			case c.IsLeaf():
				return tree.Leaves()[c.LeafID()]
			default:
				n := tree.nodes[c]
				out := []int32{n.Point}
				out = append(out, collect(n.Left)...)
				out = append(out, collect(n.Right)...)
				return out
			}
		}
		for _, n := range tree.nodes {
			for _, pi := range collect(n.Left) {
				if tc.Pts[pi].Component(int(n.Axis)) > n.Split+1e-12 {
					ok = false
				}
			}
			for _, pi := range collect(n.Right) {
				if tc.Pts[pi].Component(int(n.Axis)) < n.Split-1e-12 {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickApproxNeverWorseThanLeaderBound(t *testing.T) {
	// For any batch, an approximate NN answer is at most
	// (true NN + 2·thd) away: the follower adopts a candidate its leader
	// found, and leader/query are within thd of each other.
	f := func(tc treeCase) bool {
		if len(tc.Pts) < 10 {
			return true
		}
		tree := Build(tc.Pts, 4)
		queries := tc.Pts[:len(tc.Pts)/2]
		const thd = 1.5
		res := sessionNearest(tree, queries, ApproxOptions{Threshold: thd}, nil)
		for i, q := range queries {
			want, _ := tree.Nearest(q, nil)
			if math.Sqrt(res[i].Dist2) > math.Sqrt(want.Dist2)+2*thd+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
