package kdtree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tigris/internal/geom"
)

// genCloudAndQuery produces a random bounded point set and a query for
// quick checks.
type cloudAndQuery struct {
	Pts   []geom.Vec3
	Query geom.Vec3
	R     float64
}

// Generate implements quick.Generator.
func (cloudAndQuery) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(200)
	pts := make([]geom.Vec3, n)
	for i := range pts {
		// Pre-snapped to float32 so the tree stores exactly these values
		// and the AoS property checks stay bit-identical.
		pts[i] = geom.Vec3{
			X: r.Float64()*40 - 20,
			Y: r.Float64()*40 - 20,
			Z: r.Float64()*8 - 4,
		}.Quantize32()
	}
	return reflect.ValueOf(cloudAndQuery{
		Pts:   pts,
		Query: geom.Vec3{X: r.Float64()*50 - 25, Y: r.Float64()*50 - 25, Z: r.Float64()*10 - 5},
		R:     r.Float64() * 10,
	})
}

func TestQuickNearestIsGlobalMinimum(t *testing.T) {
	f := func(cq cloudAndQuery) bool {
		tree := Build(cq.Pts)
		nb, ok := tree.Nearest(cq.Query, nil)
		if !ok {
			return false
		}
		for _, p := range cq.Pts {
			if cq.Query.Dist2(p) < nb.Dist2-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickRadiusSoundAndComplete(t *testing.T) {
	f := func(cq cloudAndQuery) bool {
		tree := Build(cq.Pts)
		res := tree.Radius(cq.Query, cq.R, nil)
		got := make(map[int]bool, len(res))
		for _, nb := range res {
			// Soundness: every result is genuinely within R.
			if math.Sqrt(nb.Dist2) > cq.R+1e-9 {
				return false
			}
			got[nb.Index] = true
		}
		// Completeness: every point within R is reported.
		for i, p := range cq.Pts {
			if cq.Query.Dist(p) <= cq.R-1e-9 && !got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickKNNPrefixProperty(t *testing.T) {
	// k-NN results must be a prefix-consistent family: the (k)-NN set is
	// contained in the (k+1)-NN set.
	f := func(cq cloudAndQuery) bool {
		tree := Build(cq.Pts)
		k := 1 + len(cq.Pts)/4
		a := tree.KNearestInto(cq.Query, k, nil, nil)
		b := tree.KNearestInto(cq.Query, k+1, nil, nil)
		if len(b) < len(a) {
			return false
		}
		for i := range a {
			if a[i].Index != b[i].Index {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickTreeContainsAllPoints(t *testing.T) {
	// Searching with an enormous radius must return every point exactly
	// once (the tree is a permutation of the input, no loss/duplication).
	f := func(cq cloudAndQuery) bool {
		tree := Build(cq.Pts)
		res := tree.Radius(cq.Query, 1e6, nil)
		if len(res) != len(cq.Pts) {
			return false
		}
		seen := make(map[int]bool, len(res))
		for _, nb := range res {
			if seen[nb.Index] {
				return false
			}
			seen[nb.Index] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
