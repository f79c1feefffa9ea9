package baseline

import (
	"math/rand"
	"testing"

	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/sim"
	"tigris/internal/twostage"
)

// surfacePoints mirrors LiDAR's 2D-manifold density.
func surfacePoints(r *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: r.Float64()*40 - 20,
			Y: r.Float64()*40 - 20,
			Z: r.NormFloat64() * 0.05,
		}
	}
	return pts
}

func nnWorkload(pts []geom.Vec3, r *rand.Rand, n int) sim.Workload {
	qs := make([]geom.Vec3, n)
	for i := range qs {
		base := pts[r.Intn(len(pts))]
		qs[i] = base.Add(geom.Vec3{X: r.Float64() - 0.5, Y: r.Float64() - 0.5})
	}
	return sim.Workload{Kind: sim.NNSearch, Queries: qs}
}

func TestGPUFasterThanCPU(t *testing.T) {
	// §6.1: "KD-tree search on the GPU is about 8–20× faster than on the
	// CPU."
	// Frame-scale query counts: at tiny workloads the kernel-launch
	// overhead hides the GPU's throughput advantage (as it does on real
	// hardware).
	r := rand.New(rand.NewSource(1))
	pts := surfacePoints(r, 20000)
	tree := kdtree.Build(pts)
	w := nnWorkload(pts, r, 20000)
	p := ProfileCanonical(tree, w)
	gpu := RTX2080Ti.Time(p)
	cpu := Xeon4110.Time(p)
	ratio := cpu.Seconds() / gpu.Seconds()
	if ratio < 5 || ratio > 25 {
		t.Errorf("GPU/CPU speedup %0.1f outside the paper's 8-20x band (with slack)", ratio)
	}
}

func TestTwoStageHelpsGPU(t *testing.T) {
	// §6.3: Base-2SKD is ~28% faster than Base-KD on the GPU because the
	// brute-force visits coalesce. Verify the direction on a
	// paper-representative workload (top height 10, ~128-point leaves).
	r := rand.New(rand.NewSource(2))
	pts := surfacePoints(r, 50000)
	canon := kdtree.Build(pts)
	two := twostage.BuildWithLeafSize(pts, 128)
	w := nnWorkload(pts, r, 10000)

	pKD := ProfileCanonical(canon, w)
	p2S := ProfileTwoStage(two, w)
	tKD := RTX2080Ti.Time(pKD)
	t2S := RTX2080Ti.Time(p2S)
	if t2S >= tKD {
		t.Errorf("Base-2SKD (%v) not faster than Base-KD (%v) on GPU", t2S, tKD)
	}
	// On the CPU the extra brute-force work is NOT free: the two-stage
	// layout should not be dramatically better there (it exists for
	// parallel hardware).
	cKD := Xeon4110.Time(pKD)
	c2S := Xeon4110.Time(p2S)
	if c2S < cKD/2 {
		t.Errorf("two-stage should not halve CPU time: %v vs %v", c2S, cKD)
	}
}

func TestProfileCounts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := surfacePoints(r, 2000)
	two := twostage.Build(pts, 4)
	w := nnWorkload(pts, r, 100)
	p := ProfileTwoStage(two, w)
	if p.Queries != 100 {
		t.Errorf("queries = %d", p.Queries)
	}
	if p.TreeVisits <= 0 || p.BruteVisits <= 0 {
		t.Errorf("profile empty: %+v", p)
	}
	// Radius workloads must profile too.
	wr := sim.Workload{Kind: sim.RadiusSearch, Queries: w.Queries, Radius: 2}
	pr := ProfileTwoStage(two, wr)
	if pr.BruteVisits <= 0 {
		t.Errorf("radius profile empty: %+v", pr)
	}
	canon := kdtree.Build(pts)
	pc := ProfileCanonical(canon, wr)
	if pc.TreeVisits <= 0 || pc.BruteVisits != 0 {
		t.Errorf("canonical profile wrong: %+v", pc)
	}
}

func TestTimeMonotoneInWork(t *testing.T) {
	small := Profile{TreeVisits: 1000, BruteVisits: 1000}
	large := Profile{TreeVisits: 100000, BruteVisits: 100000}
	for _, m := range []Model{RTX2080Ti, Xeon4110} {
		if m.Time(large) <= m.Time(small) {
			t.Errorf("%s: time not monotone in work", m.Name)
		}
		if m.Energy(large) <= 0 {
			t.Errorf("%s: energy not positive", m.Name)
		}
	}
}

func TestParallelProfileMatchesSequential(t *testing.T) {
	// The worker-pool replay shards stats per worker and merges; the
	// resulting profile must be identical to the sequential replay for
	// both trees and both search kinds.
	r := rand.New(rand.NewSource(99))
	pts := surfacePoints(r, 3000)
	wn := nnWorkload(pts, r, 500)
	wr := sim.Workload{Kind: sim.RadiusSearch, Radius: 0.8, Queries: wn.Queries}
	canon := kdtree.Build(pts)
	two := twostage.BuildWithLeafSize(pts, 64)

	// The replay answers radius queries into one buffer per worker; the
	// counters are those of plain one-by-one calls that share nothing.
	var plainC kdtree.Stats
	var plainT twostage.Stats
	for _, q := range wr.Queries {
		canon.Radius(q, wr.Radius, &plainC)
		two.Radius(q, wr.Radius, &plainT)
	}
	if got, want := ProfileCanonical(canon, wr), (Profile{TreeVisits: plainC.NodesVisited, Queries: plainC.Queries}); got != want {
		t.Errorf("canonical radius replay: %+v, plain calls count %+v", got, want)
	}
	if got, want := ProfileTwoStage(two, wr), (Profile{TreeVisits: plainT.TopNodesVisited, BruteVisits: plainT.LeafPointsViewed + plainT.LeaderChecks, Queries: plainT.Queries}); got != want {
		t.Errorf("two-stage radius replay: %+v, plain calls count %+v", got, want)
	}

	for _, w := range []sim.Workload{wn, wr} {
		seqC := ProfileCanonical(canon, w)
		for _, p := range []int{2, 8} {
			if got := ProfileCanonicalParallel(canon, w, p); got != seqC {
				t.Errorf("canonical kind=%v p=%d: %+v, want %+v", w.Kind, p, got, seqC)
			}
		}
		seqT := ProfileTwoStage(two, w)
		for _, p := range []int{2, 8} {
			if got := ProfileTwoStageParallel(two, w, p); got != seqT {
				t.Errorf("twostage kind=%v p=%d: %+v, want %+v", w.Kind, p, got, seqT)
			}
		}
	}
}
