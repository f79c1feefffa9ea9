package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/synth"
)

// randPoints generates test points pre-snapped to float32 (the slab
// quantization convention), so the tree stores exactly these coordinates.
func randPoints(r *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: r.Float64()*100 - 50,
			Y: r.Float64()*100 - 50,
			Z: r.Float64()*10 - 5,
		}.Quantize32()
	}
	return pts
}

func TestNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		pts := randPoints(r, 50+r.Intn(500))
		tree := Build(pts)
		for i := 0; i < 50; i++ {
			q := geom.Vec3{X: r.Float64()*120 - 60, Y: r.Float64()*120 - 60, Z: r.Float64()*12 - 6}
			got, ok := tree.Nearest(q, nil)
			want, _ := BruteNearestSlab(tree.Slab(), q)
			if !ok {
				t.Fatal("nearest returned !ok on non-empty tree")
			}
			if math.Abs(got.Dist2-want.Dist2) > 1e-12 {
				t.Fatalf("nearest dist² %v, brute %v", got.Dist2, want.Dist2)
			}
		}
	}
}

func TestKNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 400)
	tree := Build(pts)
	for i := 0; i < 50; i++ {
		q := randPoints(r, 1)[0]
		k := 1 + r.Intn(20)
		got := tree.KNearest(q, k, nil)
		want := BruteKNearestIntoSlab(tree.Slab(), q, k, nil)
		if len(got) != len(want) {
			t.Fatalf("k-NN count %d, want %d", len(got), len(want))
		}
		for j := range got {
			if math.Abs(got[j].Dist2-want[j].Dist2) > 1e-12 {
				t.Fatalf("k-NN[%d] dist² %v, brute %v", j, got[j].Dist2, want[j].Dist2)
			}
		}
	}
}

func TestKNearestOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 300)
	tree := Build(pts)
	for i := 0; i < 20; i++ {
		res := tree.KNearest(randPoints(r, 1)[0], 15, nil)
		for j := 1; j < len(res); j++ {
			if res[j].Dist2 < res[j-1].Dist2 {
				t.Fatal("k-NN results not ascending")
			}
		}
	}
}

func TestKNearestMoreThanTree(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(4)), 5)
	tree := Build(pts)
	res := tree.KNearest(geom.Vec3{}, 10, nil)
	if len(res) != 5 {
		t.Fatalf("k > n should return n results, got %d", len(res))
	}
}

func TestRadiusMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPoints(r, 500)
	tree := Build(pts)
	for i := 0; i < 50; i++ {
		q := randPoints(r, 1)[0]
		radius := r.Float64() * 15
		got := tree.Radius(q, radius, nil)
		want := BruteRadiusIntoSlab(tree.Slab(), q, radius, nil)
		if len(got) != len(want) {
			t.Fatalf("radius count %d, want %d", len(got), len(want))
		}
		for j := range got {
			if got[j].Index != want[j].Index {
				t.Fatalf("radius[%d] = %d, want %d", j, got[j].Index, want[j].Index)
			}
		}
	}
}

func TestRadiusInclusive(t *testing.T) {
	pts := []geom.Vec3{{X: 1}, {X: 2}, {X: 3}}
	tree := Build(pts)
	res := tree.Radius(geom.Vec3{}, 2, nil)
	if len(res) != 2 {
		t.Fatalf("radius should be inclusive of boundary: got %d results", len(res))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	empty := Build(nil)
	if _, ok := empty.Nearest(geom.Vec3{}, nil); ok {
		t.Error("empty tree returned a neighbor")
	}
	if res := empty.Radius(geom.Vec3{}, 5, nil); len(res) != 0 {
		t.Error("empty tree radius returned results")
	}
	if res := empty.KNearest(geom.Vec3{}, 3, nil); len(res) != 0 {
		t.Error("empty tree k-NN returned results")
	}

	single := Build([]geom.Vec3{{X: 7}})
	nb, ok := single.Nearest(geom.Vec3{}, nil)
	if !ok || nb.Index != 0 || math.Abs(nb.Dist2-49) > 1e-12 {
		t.Errorf("singleton nearest = %+v", nb)
	}
	if h := single.height(single.root); h != 0 {
		t.Errorf("singleton height = %d", h)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Vec3{{X: 1}, {X: 1}, {X: 1}, {X: 2}}
	tree := Build(pts)
	res := tree.Radius(geom.Vec3{X: 1}, 0.5, nil)
	if len(res) != 3 {
		t.Fatalf("expected 3 duplicate hits, got %d", len(res))
	}
	nb, _ := tree.Nearest(geom.Vec3{X: 0.9}, nil)
	if math.Abs(nb.Dist2-0.01) > 1e-12 {
		t.Errorf("nearest among duplicates: %+v", nb)
	}
}

func TestTreeBalanced(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{100, 1000, 5000} {
		tree := Build(randPoints(r, n))
		maxH := int(1.2*math.Log2(float64(n))) + 2
		if h := tree.height(tree.root); h > maxH {
			t.Errorf("n=%d: height %d exceeds balanced bound %d", n, h, maxH)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randPoints(r, 1000)
	tree := Build(pts)
	var stats Stats
	for i := 0; i < 10; i++ {
		tree.Nearest(randPoints(r, 1)[0], &stats)
	}
	if stats.Queries != 10 {
		t.Errorf("Queries = %d", stats.Queries)
	}
	if stats.NodesVisited <= 0 || stats.NodesVisited > 10*1000 {
		t.Errorf("NodesVisited = %d out of range", stats.NodesVisited)
	}
	// Pruning must make the search visit far fewer nodes than brute force.
	if stats.NodesVisited > 10*400 {
		t.Errorf("NodesVisited = %d; pruning seems ineffective", stats.NodesVisited)
	}
	if stats.NodesPruned == 0 {
		t.Error("expected some pruned sub-trees")
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{NodesVisited: 5, NodesPruned: 2, Queries: 1}
	b := Stats{NodesVisited: 7, NodesPruned: 3, Queries: 2}
	a.Merge(b)
	if a.NodesVisited != 12 || a.NodesPruned != 5 || a.Queries != 3 {
		t.Errorf("merged = %+v", a)
	}
}

func TestNNVisitsLogarithmic(t *testing.T) {
	// The paper's premise: KD-tree NN search has average O(log n) visits.
	// Verify visits grow far slower than n.
	r := rand.New(rand.NewSource(8))
	visitsAt := func(n int) float64 {
		pts := randPoints(r, n)
		tree := Build(pts)
		var stats Stats
		const q = 200
		for i := 0; i < q; i++ {
			tree.Nearest(randPoints(r, 1)[0], &stats)
		}
		return float64(stats.NodesVisited) / q
	}
	small := visitsAt(1000)
	large := visitsAt(16000)
	if large > small*4 {
		t.Errorf("visit growth %0.1f -> %0.1f is superlogarithmic", small, large)
	}
}

func TestBruteEmpty(t *testing.T) {
	empty := cloud.NewSlab(0)
	if _, ok := BruteNearestSlab(empty, geom.Vec3{}); ok {
		t.Error("brute nearest on empty should be !ok")
	}
	if res := BruteRadiusIntoSlab(empty, geom.Vec3{}, 1, nil); len(res) != 0 {
		t.Error("brute radius on empty should be empty")
	}
	if res := BruteKNearestIntoSlab(empty, geom.Vec3{}, 0, nil); res != nil {
		t.Error("brute k-NN with k=0 should be nil")
	}
}

func BenchmarkBuild(b *testing.B) {
	pts := randPoints(rand.New(rand.NewSource(1)), 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts)
	}
}

// BenchmarkBuildFrame is one build on one worker over a raw 32×600
// synthetic LiDAR frame (≈ 18.6 k points, the benchmark's full scale),
// the scratch recycled as a streaming session recycles it.
func BenchmarkBuildFrame(b *testing.B) {
	seq := synth.GenerateSequence(synth.EvalSequenceConfig(1, 2019))
	slab := cloud.SlabFromPoints(seq.Frames[0].Points)
	BuildSlabPar(slab, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSlabPar(slab, 1)
	}
}

func BenchmarkNearest(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 50000)
	tree := Build(pts)
	queries := randPoints(r, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(queries[i%len(queries)], nil)
	}
}

func BenchmarkRadius(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 50000)
	tree := Build(pts)
	queries := randPoints(r, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Radius(queries[i%len(queries)], 1.0, nil)
	}
}
