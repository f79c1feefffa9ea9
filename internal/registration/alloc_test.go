package registration

import (
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// Steady-state allocation budgets for the per-pair hot path. A streaming
// session runs rejection and fine-tuning once per pair forever; with the
// pooled sample/correspondence slabs and the reusable ICP scratch these
// paths must settle to (near) zero allocations per pair. The bounds are
// deliberately tight: a regression that re-introduces per-hypothesis or
// per-iteration slices trips them immediately.

func TestRANSACSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	corr, srcPts, dstPts := ransacFixture(300, 0.3, 21)
	cfg := RejectionConfig{Method: RejectRANSAC, Seed: 21}

	// Warm the sample scratch and correspondence slab pools.
	for i := 0; i < 3; i++ {
		recycleCorr(nil, RejectCorrespondences(corr, srcPts, dstPts, cfg, 1))
	}
	allocs := testing.AllocsPerRun(20, func() {
		inliers := RejectCorrespondences(corr, srcPts, dstPts, cfg, 1)
		recycleCorr(nil, inliers)
	})
	// Tolerated residue: a handful of per-CALL fixed costs (the scoring
	// closures handed to the worker pool and one pooled-slab pointer
	// round trip) — nothing proportional to the hypothesis count. Before
	// the pooled scratch and the stack-allocated 3-point solves this path
	// allocated ~4 slices per hypothesis (≈1600 per call at the default
	// 400 iterations).
	if allocs > 6 {
		t.Errorf("RANSAC rejection allocates %.1f times per call steady-state, want <= 6", allocs)
	}
}

func TestICPSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 22))
	src := cloud.SlabFromCloud(seq.Frames[1])
	dst := cloud.SlabFromCloud(seq.Frames[0])
	target := search.NewKDSearcherSlab(dst)
	target.SetParallelism(1)
	cfg := ICPConfig{MaxIterations: 4}

	// Warm the ICP scratch (and let its buffers grow to this pair's
	// sizes).
	for i := 0; i < 2; i++ {
		ICP(src, target, geom.IdentityTransform(), cfg)
	}
	allocs := testing.AllocsPerRun(10, func() {
		ICP(src, target, geom.IdentityTransform(), cfg)
	})
	// Budget: ~15 word-sized allocations per iteration — the worker-pool
	// closures and chunk-partial arrays of the batched search and the
	// deterministic reductions — and nothing proportional to the point
	// count. The historical path allocated five-plus POINT-COUNT-sized
	// slices per iteration (moved source clone, query buffer, NN result
	// batch, gate index, correspondence arrays): megabytes per call where
	// this budget is a few hundred bytes.
	limit := 15.0 * float64(cfg.MaxIterations)
	if allocs > limit {
		t.Errorf("ICP allocates %.1f times per call steady-state, want <= %.0f", allocs, limit)
	}
}

// TestPointToPlaneAllocs pins the LM solve and the RMSE pass at one
// worker to no allocation at all: the passes run kernels bound once in a
// pooled slabPasses and the 6×6 solves run in place on stack arrays. A
// DP5 frame runs this solve once per ICP iteration, and a rejected loop
// candidate a dozen times, so anything it allocates is paid per pass.
func TestPointToPlaneAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, n := range []int{500, 3*accumChunk + 1} {
		src, dst := planeFixture(n, 9, 0.05, 0.4, 0.01, false)
		EstimatePointToPlaneSlabPar(src, dst, 1) // warm the pooled passes
		allocs := testing.AllocsPerRun(10, func() {
			EstimatePointToPlaneSlabPar(src, dst, 1)
			AlignmentRMSESlabPar(geom.IdentityTransform(), src, dst, 1)
		})
		if allocs != 0 {
			t.Errorf("n=%d: a one-worker point-to-plane solve and RMSE pass allocate %.1f times, want 0", n, allocs)
		}
	}
}

// skipUnderRace skips allocation-budget tests when the race detector's
// shadow allocations would break AllocsPerRun.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
}
