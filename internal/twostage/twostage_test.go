package twostage

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/synth"
)

func randPoints(r *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: r.Float64()*100 - 50,
			Y: r.Float64()*100 - 50,
			Z: r.Float64()*10 - 5,
		}
	}
	return pts
}

// sessionNearest answers the queries in order on one fresh session: a stage
// batch as the accelerator sees it.
func sessionNearest(tree *Tree, queries []geom.Vec3, opts ApproxOptions, stats *Stats) []kdtree.Neighbor {
	sess := tree.NewApproxSession(opts)
	out := make([]kdtree.Neighbor, len(queries))
	for i, q := range queries {
		out[i], _ = sess.Nearest(q, stats)
	}
	return out
}

// sessionRadius is sessionNearest for radius search.
func sessionRadius(tree *Tree, queries []geom.Vec3, r float64, opts ApproxOptions, stats *Stats) [][]kdtree.Neighbor {
	sess := tree.NewApproxSession(opts)
	out := make([][]kdtree.Neighbor, len(queries))
	for i, q := range queries {
		out[i] = sess.Radius(q, r, stats)
	}
	return out
}

func TestNearestMatchesCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 800)
	canon := kdtree.Build(pts)
	for _, h := range []int{0, 1, 3, 5, 8, 12} {
		tree := Build(pts, h)
		for i := 0; i < 40; i++ {
			q := randPoints(r, 1)[0]
			got, ok := tree.Nearest(q, nil)
			want, _ := canon.Nearest(q, nil)
			if !ok || math.Abs(got.Dist2-want.Dist2) > 1e-12 {
				t.Fatalf("h=%d: two-stage NN %v, canonical %v", h, got, want)
			}
		}
	}
}

func TestRadiusMatchesCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randPoints(r, 800)
	canon := kdtree.Build(pts)
	for _, h := range []int{0, 2, 6, 10} {
		tree := Build(pts, h)
		for i := 0; i < 30; i++ {
			q := randPoints(r, 1)[0]
			radius := 2 + r.Float64()*10
			got := tree.Radius(q, radius, nil)
			want := canon.Radius(q, radius, nil)
			if len(got) != len(want) {
				t.Fatalf("h=%d: radius count %d vs %d", h, len(got), len(want))
			}
			for j := range got {
				if got[j].Index != want[j].Index {
					t.Fatalf("h=%d: radius[%d] = %d vs %d", h, j, got[j].Index, want[j].Index)
				}
			}
		}
	}
}

func TestHeightZeroIsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 200)
	tree := Build(pts, 0)
	if len(tree.nodes) != 0 {
		t.Fatalf("height-0 tree has %d top nodes", len(tree.nodes))
	}
	if len(tree.Leaves()) != 1 || len(tree.Leaves()[0]) != 200 {
		t.Fatalf("height-0 tree should be one full leaf set")
	}
	var stats Stats
	tree.Nearest(geom.Vec3{}, &stats)
	if stats.LeafPointsViewed != 200 {
		t.Errorf("brute-force NN viewed %d points, want 200", stats.LeafPointsViewed)
	}
}

func TestRedundancyIncreasesWithLeafSize(t *testing.T) {
	// Fig. 6a: redundancy (two-stage visits / canonical visits) grows as
	// leaf sets grow.
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 4000)
	canon := kdtree.Build(pts)
	queries := randPoints(r, 100)

	var canonStats kdtree.Stats
	for _, q := range queries {
		canon.Nearest(q, &canonStats)
	}

	prevRatio := 0.0
	for _, leafSize := range []int{2, 8, 32, 128} {
		tree := BuildWithLeafSize(pts, leafSize)
		var stats Stats
		for _, q := range queries {
			tree.Nearest(q, &stats)
		}
		ratio := float64(stats.TotalVisited()) / float64(canonStats.NodesVisited)
		if ratio < prevRatio*0.8 {
			t.Errorf("leafSize=%d: redundancy %0.2f dropped sharply from %0.2f", leafSize, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio < 2 {
		t.Errorf("leaf size 128 should cost at least 2x canonical visits, got %0.2f", prevRatio)
	}
}

// maxLeafSize returns the size of the largest leaf set (the paper's
// "leaf-set size" knob reported in Fig. 6).
func maxLeafSize(t *Tree) int {
	m := 0
	for _, l := range t.leaves {
		m = max(m, int(l.hi-l.lo))
	}
	return m
}

func TestBuildWithLeafSizeRespectsTarget(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPoints(r, 1000)
	for _, target := range []int{1, 4, 16, 64} {
		tree := BuildWithLeafSize(pts, target)
		if got := maxLeafSize(tree); got > target {
			t.Errorf("target %d: max leaf size %d", target, got)
		}
	}
}

func TestChildEncoding(t *testing.T) {
	for _, id := range []int{0, 1, 7, 100000} {
		c := encodeLeaf(id)
		if !c.IsLeaf() || c >= 0 {
			t.Fatalf("leaf %d misclassified", id)
		}
		if c.LeafID() != id {
			t.Fatalf("leaf id round trip: %d -> %d", id, c.LeafID())
		}
	}
	if childNone.IsLeaf() || childNone >= 0 {
		t.Error("childNone misclassified")
	}
	if Child(5).IsLeaf() {
		t.Error("node child misclassified")
	}
}

func TestApproxExactWhenDisabled(t *testing.T) {
	// A threshold of zero is exact search: the answers and the Stats of
	// Tree.Nearest and Tree.Radius, to the last counter.
	r := rand.New(rand.NewSource(6))
	pts := randPoints(r, 500)
	tree := Build(pts, 4)
	queries := randPoints(r, 80)
	const radius = 12.0
	var got, want Stats
	sess := tree.NewApproxSession(ApproxOptions{Threshold: 0})
	for i, q := range queries {
		nn, _ := sess.Nearest(q, &got)
		if exact, _ := tree.Nearest(q, &want); nn != exact {
			t.Fatalf("query %d: session NN %v, tree %v", i, nn, exact)
		}
		if rad, exact := sess.Radius(q, radius, &got), tree.Radius(q, radius, &want); !slices.Equal(rad, exact) {
			t.Fatalf("query %d: session radius %v, tree %v", i, rad, exact)
		}
	}
	if got != want {
		t.Errorf("session stats %+v, tree stats %+v", got, want)
	}
	if want.TopNodesPruned == 0 || want.LeafPointsViewed == 0 {
		t.Errorf("workload exercises no pruning or no leaf scan: %+v", want)
	}
}

func TestLoggingVisitsChangesNothing(t *testing.T) {
	// A session that logs its visits answers exactly as one that does not,
	// with the same Stats, exact and approximate, NN and radius — and the
	// log holds one walk per query.
	r := rand.New(rand.NewSource(16))
	pts := randPoints(r, 3000)
	tree := BuildWithLeafSize(pts, 64)
	queries := make([]geom.Vec3, 300)
	for i := range queries {
		base := pts[r.Intn(len(pts))]
		queries[i] = base.Add(geom.Vec3{X: r.Float64() - 0.5, Y: r.Float64() - 0.5, Z: r.Float64() - 0.5})
	}
	const radius = 3.0
	for _, opts := range []ApproxOptions{{}, {Threshold: DefaultNNThreshold, RadiusThresholdFrac: DefaultRadiusThresholdFrac}} {
		var plainStats, loggedStats Stats
		var log VisitLog
		plain, logged := tree.NewApproxSession(opts), tree.NewApproxSession(opts)
		logged.LogVisits(&log)
		for i, q := range queries {
			a, _ := plain.Nearest(q, &plainStats)
			if b, _ := logged.Nearest(q, &loggedStats); a != b {
				t.Fatalf("%+v: query %d: NN %v unlogged, %v logged", opts, i, a, b)
			}
		}
		for i, q := range queries {
			if a, b := plain.Radius(q, radius, &plainStats), logged.Radius(q, radius, &loggedStats); !slices.Equal(a, b) {
				t.Fatalf("%+v: query %d: radius %v unlogged, %v logged", opts, i, a, b)
			}
		}
		if plainStats != loggedStats {
			t.Errorf("%+v: stats %+v unlogged, %+v logged", opts, plainStats, loggedStats)
		}
		if (plainStats.FollowerHits > 0) != (opts.Threshold > 0) {
			t.Errorf("%+v: %d follower visits", opts, plainStats.FollowerHits)
		}
		if log.Queries() != 2*len(queries) {
			t.Errorf("%+v: %d walks logged for %d queries", opts, log.Queries(), 2*len(queries))
		}
	}
}

func TestApproxNNBoundedError(t *testing.T) {
	// Followers inherit their leader's candidate, so the returned neighbor
	// can be farther than the true NN, but not arbitrarily: the result the
	// follower adopts is within (thd + true-NN-dist + thd) by the triangle
	// inequality through the leader. Check a generous bound and that most
	// answers are exact.
	r := rand.New(rand.NewSource(7))
	pts := randPoints(r, 3000)
	tree := Build(pts, 5)
	// Clustered queries make followers common.
	queries := make([]geom.Vec3, 400)
	for i := range queries {
		base := pts[r.Intn(len(pts))]
		queries[i] = base.Add(geom.Vec3{X: r.Float64() - 0.5, Y: r.Float64() - 0.5, Z: r.Float64() - 0.5})
	}
	const thd = 1.2
	var stats Stats
	res := sessionNearest(tree, queries, ApproxOptions{Threshold: thd}, &stats)
	if stats.FollowerHits == 0 {
		t.Fatal("expected some follower hits with clustered queries")
	}
	exact := 0
	for i, q := range queries {
		want, _ := tree.Nearest(q, nil)
		gotD := math.Sqrt(res[i].Dist2)
		wantD := math.Sqrt(want.Dist2)
		if gotD > wantD+2*thd+1e-9 {
			t.Fatalf("query %d: approx NN dist %v exceeds bound (true %v)", i, gotD, wantD)
		}
		if math.Abs(gotD-wantD) < 1e-9 {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(queries)); frac < 0.5 {
		t.Errorf("only %.2f of approx NN answers exact; expected mostly-exact behavior", frac)
	}
}

func TestApproxReducesWork(t *testing.T) {
	// The whole point of Algorithm 1 (paper §6.3 reports a 72.8% node
	// visit reduction): followers must make the search cheaper.
	r := rand.New(rand.NewSource(8))
	pts := randPoints(r, 5000)
	tree := BuildWithLeafSize(pts, 128)
	queries := make([]geom.Vec3, 1000)
	for i := range queries {
		base := pts[r.Intn(len(pts))]
		queries[i] = base.Add(geom.Vec3{X: r.Float64()*0.6 - 0.3, Y: r.Float64()*0.6 - 0.3, Z: r.Float64()*0.6 - 0.3})
	}
	var exactStats, approxStats Stats
	sessionNearest(tree, queries, ApproxOptions{Threshold: 0}, &exactStats)
	sessionNearest(tree, queries, ApproxOptions{Threshold: 1.2}, &approxStats)
	if approxStats.TotalVisited() >= exactStats.TotalVisited() {
		t.Errorf("approx visited %d >= exact %d", approxStats.TotalVisited(), exactStats.TotalVisited())
	}
}

func TestApproxRadiusSubsetOfExact(t *testing.T) {
	// Approximate radius results must be a subset of the exact results
	// (followers can miss points, never invent them), and every returned
	// point must genuinely lie within r.
	r := rand.New(rand.NewSource(9))
	pts := randPoints(r, 2000)
	tree := Build(pts, 5)
	queries := make([]geom.Vec3, 150)
	for i := range queries {
		base := pts[r.Intn(len(pts))]
		queries[i] = base.Add(geom.Vec3{X: r.Float64() - 0.5, Y: r.Float64() - 0.5, Z: r.Float64() - 0.5})
	}
	const radius = 3.0
	var stats Stats
	res := sessionRadius(tree, queries, radius, ApproxOptions{Threshold: radius * 0.4}, &stats)
	if stats.FollowerHits == 0 {
		t.Fatal("expected follower hits")
	}
	for i, q := range queries {
		exact := tree.Radius(q, radius, nil)
		exactSet := make(map[int]bool, len(exact))
		for _, nb := range exact {
			exactSet[nb.Index] = true
		}
		for _, nb := range res[i] {
			if !exactSet[nb.Index] {
				t.Fatalf("query %d: approx returned %d not in exact set", i, nb.Index)
			}
			if q.Dist(tree.Points()[nb.Index]) > radius+1e-9 {
				t.Fatalf("query %d: returned point outside radius", i)
			}
		}
	}
}

func TestApproxRadiusRecall(t *testing.T) {
	// Fig. 7b's premise: the error from approximate radius search is
	// moderate. Check aggregate recall stays high at the paper's 40%
	// threshold setting.
	r := rand.New(rand.NewSource(10))
	pts := randPoints(r, 3000)
	tree := BuildWithLeafSize(pts, 128)
	queries := make([]geom.Vec3, 300)
	for i := range queries {
		base := pts[r.Intn(len(pts))]
		queries[i] = base.Add(geom.Vec3{X: r.Float64()*0.8 - 0.4, Y: r.Float64()*0.8 - 0.4, Z: r.Float64()*0.8 - 0.4})
	}
	const radius = 4.0
	res := sessionRadius(tree, queries, radius, ApproxOptions{Threshold: radius * DefaultRadiusThresholdFrac}, nil)
	var found, total int
	for i, q := range queries {
		exact := tree.Radius(q, radius, nil)
		total += len(exact)
		found += len(res[i])
	}
	if recall := float64(found) / float64(total); recall < 0.7 {
		t.Errorf("radius recall %.2f too low", recall)
	}
}

func TestLeaderCap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pts := randPoints(r, 500)
	tree := Build(pts, 2) // few leaves, many queries per leaf
	queries := randPoints(r, 3000)
	var stats Stats
	// A tiny threshold forces nearly every query onto the precise path,
	// which would add a leader every time without the cap.
	sessionNearest(tree, queries, ApproxOptions{Threshold: 1e-9, MaxLeaders: 16}, &stats)
	maxPossible := int64(len(tree.Leaves()) * 16)
	if stats.LeaderInserts > maxPossible {
		t.Errorf("leader inserts %d exceed cap %d", stats.LeaderInserts, maxPossible)
	}
}

func TestStatsTotalAndMerge(t *testing.T) {
	s := Stats{TopNodesVisited: 3, LeafPointsViewed: 10, LeaderChecks: 2}
	if s.TotalVisited() != 15 {
		t.Errorf("TotalVisited = %d", s.TotalVisited())
	}
	other := Stats{TopNodesVisited: 1, TopNodesPruned: 4, LeafPointsViewed: 5, LeaderChecks: 1, FollowerHits: 2, LeaderInserts: 3, Queries: 7}
	s.Merge(other)
	if s.TopNodesVisited != 4 || s.TopNodesPruned != 4 || s.LeafPointsViewed != 15 ||
		s.LeaderChecks != 3 || s.FollowerHits != 2 || s.LeaderInserts != 3 || s.Queries != 7 {
		t.Errorf("merged = %+v", s)
	}
}

func TestEmptyTree(t *testing.T) {
	tree := Build(nil, 3)
	if _, ok := tree.Nearest(geom.Vec3{}, nil); ok {
		t.Error("empty tree returned neighbor")
	}
	if res := tree.Radius(geom.Vec3{}, 1, nil); len(res) != 0 {
		t.Error("empty tree radius returned results")
	}
	res := sessionNearest(tree, []geom.Vec3{{}}, ApproxOptions{Threshold: 1}, nil)
	if res[0].Index >= 0 {
		t.Error("empty tree approx returned neighbor")
	}
}

func BenchmarkTwoStageBuild(b *testing.B) {
	pts := randPoints(rand.New(rand.NewSource(1)), 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildWithLeafSize(pts, 128)
	}
}

// benchFrame is the micro-benchmarks' index and query stream: two
// consecutive raw 32×600 synthetic LiDAR frames (≈ 18.6 k points, the
// benchmark's full scale), the second queried against the first as ICP
// and the on-demand normals do.
var benchFrame = sync.OnceValues(func() (*cloud.Slab, []geom.Vec3) {
	seq := synth.GenerateSequence(synth.EvalSequenceConfig(2, 2019))
	return cloud.SlabFromPoints(seq.Frames[0].Points), seq.Frames[1].Points
})

// BenchmarkBuildFrame is one build on one worker over the first frame at
// the pipeline's leaf sets of ≤ 32 points (internal/search's automatic
// size), the scratch recycled as a streaming session recycles it.
func BenchmarkBuildFrame(b *testing.B) {
	slab, _ := benchFrame()
	h := HeightForLeafSize(slab.Len(), 32)
	BuildSlabPar(slab, h, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSlabPar(slab, h, 1)
	}
}

// BenchmarkTwoStageRadius is one 0.5 m radius query (the normal
// estimation radius; ≈ 33 neighbours) answered into a batch-arena-sized
// buffer, at the leaf sizes the automatic target was chosen among.
func BenchmarkTwoStageRadius(b *testing.B) {
	slab, queries := benchFrame()
	for _, leaf := range []int{16, 64, 128} {
		b.Run("leaf"+strconv.Itoa(leaf), func(b *testing.B) {
			tree := BuildWithLeafSizeSlab(slab, leaf)
			buf := make([]kdtree.Neighbor, 0, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tree.RadiusInto(queries[i%len(queries)], 0.5, buf, nil)
			}
		})
	}
}

// BenchmarkTwoStageNearest is one NN query (ICP's correspondence search).
func BenchmarkTwoStageNearest(b *testing.B) {
	slab, queries := benchFrame()
	tree := BuildWithLeafSizeSlab(slab, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(queries[i%len(queries)], nil)
	}
}

// BenchmarkTrackedNearestICP is ICP's correspondence search as the
// pipeline runs it: every point of the second frame queried against the
// first through eight iterations whose rigid motions halve each time (5 cm
// and 5 mrad first), each query certified by NearestTracked; one op is
// the whole sequence, reported per query beside the share certified.
func BenchmarkTrackedNearestICP(b *testing.B) {
	slab, queries := benchFrame()
	tree := BuildWithLeafSizeSlab(slab, 32)
	qs := make([]geom.Vec3, len(queries))
	certs, moved := make([]Cert, len(qs)), make([]float64, len(qs))
	const iterations = 8
	var walks Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(qs, queries)
		clear(certs)
		clear(moved)
		r := rand.New(rand.NewSource(1))
		for k := 0; k < iterations; k++ {
			var st Stats
			for j, q := range qs {
				tree.NearestTracked(q, &certs[j], &moved[j], &st)
			}
			walks.Merge(st)
			scale := math.Ldexp(1, -k)
			rigidStep(r, qs, moved, 5e-3*scale*r.NormFloat64(), 0.05*scale)
		}
	}
	n := float64(b.N * iterations * len(qs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/query")
	b.ReportMetric(float64(walks.TotalVisited())/n, "visited/query")
}

func BenchmarkApproxNearestBatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := randPoints(r, 20000)
	tree := BuildWithLeafSize(pts, 128)
	queries := make([]geom.Vec3, 2048)
	for i := range queries {
		base := pts[r.Intn(len(pts))]
		queries[i] = base.Add(geom.Vec3{X: r.Float64() - 0.5, Y: r.Float64() - 0.5})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sessionNearest(tree, queries, ApproxOptions{Threshold: 1.2}, nil)
	}
}
