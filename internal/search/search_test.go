package search

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/twostage"
)

// randPoints generates test points pre-snapped to float32 (the slab
// quantization convention), so the backends store exactly these
// coordinates.
func randPoints(r *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: r.Float64()*60 - 30,
			Y: r.Float64()*60 - 30,
			Z: r.Float64()*6 - 3,
		}.Quantize32()
	}
	return pts
}

func TestKDSearcherMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 400)
	s := NewKDSearcher(pts)
	for i := 0; i < 30; i++ {
		q := randPoints(r, 1)[0]
		nb, ok := s.Nearest(q)
		want, _ := kdtree.BruteNearestSlab(s.Slab(), q)
		if !ok || math.Abs(nb.Dist2-want.Dist2) > 1e-12 {
			t.Fatalf("KDSearcher NN mismatch")
		}
	}
	if s.Metrics().Queries != 30 {
		t.Errorf("queries = %d", s.Metrics().Queries)
	}
	if s.Metrics().NodesVisited == 0 {
		t.Error("expected node visits recorded")
	}
}

func TestTwoStageSearcherExactMatchesKD(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 600)
	kd := NewKDSearcher(pts)
	ts := NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 5})
	for i := 0; i < 40; i++ {
		q := randPoints(r, 1)[0]
		a, _ := kd.Nearest(q)
		b, _ := ts.Nearest(q)
		if math.Abs(a.Dist2-b.Dist2) > 1e-12 {
			t.Fatalf("NN mismatch: %v vs %v", a, b)
		}
		ra := kd.Radius(q, 5)
		rb := ts.Radius(q, 5)
		if len(ra) != len(rb) {
			t.Fatalf("radius count mismatch: %d vs %d", len(ra), len(rb))
		}
	}
}

func TestTwoStageKNearestExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 500)
	ts := NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: 4})
	for i := 0; i < 25; i++ {
		q := randPoints(r, 1)[0]
		k := 1 + r.Intn(12)
		got := ts.KNearest(q, k)
		want := kdtree.BruteKNearestIntoSlab(ts.Slab(), q, k, nil)
		if len(got) != len(want) {
			t.Fatalf("k-NN count %d, want %d", len(got), len(want))
		}
		for j := range got {
			if math.Abs(got[j].Dist2-want[j].Dist2) > 1e-12 {
				t.Fatalf("k-NN[%d] mismatch", j)
			}
		}
	}
}

func TestTwoStageApproxSessionPersistsLeaders(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 3000)
	ts := NewTwoStageSearcher(pts, TwoStageConfig{
		TopHeight: 5,
		Approx:    &twostage.ApproxOptions{Threshold: 1.5},
	})
	// Clustered queries issued one by one (not as a batch) must still get
	// follower hits because the session persists leader state.
	for i := 0; i < 500; i++ {
		base := pts[r.Intn(len(pts))]
		q := base.Add(geom.Vec3{X: r.Float64()*0.4 - 0.2, Y: r.Float64()*0.4 - 0.2})
		ts.Nearest(q)
	}
	if ts.Stats().FollowerHits == 0 {
		t.Error("expected follower hits across separate calls")
	}
}

// maxLeafSize returns the size of the tree's largest leaf set.
func maxLeafSize(t *twostage.Tree) int {
	m := 0
	for _, set := range t.Leaves() {
		m = max(m, len(set))
	}
	return m
}

func TestNegativeTopHeightAutoSizes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPoints(r, 4000)
	ts := NewTwoStageSearcher(pts, TwoStageConfig{TopHeight: -1})
	if got := maxLeafSize(ts.index); got > autoLeafSize || got < autoLeafSize/2-1 {
		t.Errorf("auto-sized leaf = %d, want the largest halving of the cloud that is <= %d", got, autoLeafSize)
	}
}

// TestTwoStageBackendDefaultIsATree: a registry two-stage backend built
// with no top_height must size its leaf sets, not put every point in one
// leaf (height 0: a linear scan per query).
func TestTwoStageBackendDefaultIsATree(t *testing.T) {
	slab := cloud.SlabFromPoints(randPoints(rand.New(rand.NewSource(5)), 4000))
	for _, name := range []string{BackendTwoStage, BackendTwoStageApprox} {
		s, err := NewByNameSlab(name, slab, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tree := s.(*TwoStageSearcher).index
		if leaves, max := len(tree.Leaves()), maxLeafSize(tree); leaves < 2 || max > 128 {
			t.Errorf("%s with no options: %d leaves, largest %d points; want > 1 leaf of <= 128", name, leaves, max)
		}
	}
}

func TestKthNNSearcher(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts := randPoints(r, 300)
	inner := NewKDSearcher(pts)
	for _, k := range []int{1, 2, 5, 9} {
		s := &KthNNSearcher{Searcher: inner, K: k}
		q := randPoints(r, 1)[0]
		nb, ok := s.Nearest(q)
		if !ok {
			t.Fatal("no result")
		}
		want := kdtree.BruteKNearestIntoSlab(inner.Slab(), q, k, nil)
		if nb.Index != want[k-1].Index {
			t.Fatalf("K=%d: got %d, want %d", k, nb.Index, want[k-1].Index)
		}
	}
	// K larger than the cloud falls back to the farthest available.
	tiny := &KthNNSearcher{Searcher: NewKDSearcher(pts[:3]), K: 10}
	nb, ok := tiny.Nearest(geom.Vec3{})
	if !ok {
		t.Fatal("tiny cloud should still answer")
	}
	want := kdtree.BruteKNearestIntoSlab(tiny.Slab(), geom.Vec3{}, 3, nil)
	if nb.Index != want[2].Index {
		t.Errorf("fallback should return farthest available")
	}
}

func TestShellSearcher(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randPoints(r, 800)
	inner := NewKDSearcher(pts)
	s := &ShellSearcher{Searcher: inner, R1: 3, R2: 7}
	q := randPoints(r, 1)[0]
	res := s.Radius(q, 5) // nominal r is ignored by the injection
	if len(res) == 0 {
		t.Fatal("shell returned nothing (statistically implausible)")
	}
	for _, nb := range res {
		d := math.Sqrt(nb.Dist2)
		if d < 3-1e-9 || d > 7+1e-9 {
			t.Fatalf("shell returned point at distance %v", d)
		}
	}
	// Shell results must equal brute-force shell.
	want := 0
	for _, p := range pts {
		d := q.Dist(p)
		if d >= 3 && d <= 7 {
			want++
		}
	}
	if len(res) != want {
		t.Errorf("shell count %d, want %d", len(res), want)
	}
}

func TestInjectionPassThrough(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts := randPoints(r, 200)
	inner := NewKDSearcher(pts)
	kth := &KthNNSearcher{Searcher: inner, K: 3}
	shell := &ShellSearcher{Searcher: inner, R1: 1, R2: 2}
	q := randPoints(r, 1)[0]

	if got, want := kth.Radius(q, 4), inner.Radius(q, 4); len(got) != len(want) {
		t.Error("KthNN should not distort radius search")
	}
	a, _ := shell.Nearest(q)
	b, _ := inner.Nearest(q)
	if a != b {
		t.Error("Shell should not distort NN search")
	}
	if kth.Slab().Len() != 200 || shell.Slab().Len() != 200 {
		t.Error("Slab pass-through broken")
	}
}

// TestBatchNearestIntoKeepsInjection: the wrappers embed the Searcher
// interface, which does not carry the optional NearestBatchInto fast
// path, so BatchNearestInto must answer through the wrapper's own
// NearestBatch — a promoted inner fast path would silently drop the
// injected error from ICP's hot loop.
func TestBatchNearestIntoKeepsInjection(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	inner := NewKDSearcher(randPoints(r, 300))
	kth := &KthNNSearcher{Searcher: inner, K: 3}
	qs := randPoints(r, 40)

	got := BatchNearestInto(kth, qs, nil)
	exact := inner.NearestBatch(qs)
	for i, q := range qs {
		if want, _ := kth.Nearest(q); got[i] != want {
			t.Fatalf("query %d: %v through BatchNearestInto, %v from the wrapper", i, got[i], want)
		}
		if got[i] == exact[i] {
			t.Fatalf("query %d: the injection was bypassed", i)
		}
	}
}

func TestMetricsMerge(t *testing.T) {
	a := Metrics{Queries: 1, NodesVisited: 10}
	a.Merge(Metrics{Queries: 2, NodesVisited: 5})
	if a.Queries != 3 || a.NodesVisited != 15 {
		t.Errorf("merged = %+v", a)
	}
}

// TestShellKeepsItsInnerEdge: the shell is [R1, R2], so a neighbour at
// exactly R1 is kept, by Radius and by RadiusBatch alike.
func TestShellKeepsItsInnerEdge(t *testing.T) {
	pts := []geom.Vec3{{X: 0.25}, {X: 0.5}, {X: 1}, {X: 3}} // 0.5² = 0.25 exactly
	s := &ShellSearcher{Searcher: NewBruteSearcher(pts), R1: 0.5, R2: 2}
	want := []int{1, 2}
	for name, res := range map[string][]kdtree.Neighbor{
		"Radius":      s.Radius(geom.Vec3{}, 1),
		"RadiusBatch": s.RadiusBatch([]geom.Vec3{{}}, 1)[0],
	} {
		var got []int
		for _, nb := range res {
			got = append(got, nb.Index)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: shell [0.5, 2] kept %v, want %v", name, got, want)
		}
	}
}

// TestKthNNBelowOneIsNearest: a K below 1 answers the nearest neighbour,
// as K = 1 does, through Nearest and NearestBatch alike.
func TestKthNNBelowOneIsNearest(t *testing.T) {
	pts := []geom.Vec3{{X: 3}, {X: 1}, {X: 2}}
	q := geom.Vec3{}
	for _, k := range []int{0, -1} {
		s := &KthNNSearcher{Searcher: NewBruteSearcher(pts), K: k}
		if nb, ok := s.Nearest(q); !ok || nb.Index != 1 {
			t.Errorf("K=%d: Nearest = %+v, %v; want point 1", k, nb, ok)
		}
		if nb := s.NearestBatch([]geom.Vec3{q})[0]; nb.Index != 1 {
			t.Errorf("K=%d: NearestBatch = %+v; want point 1", k, nb)
		}
	}
}
