package registration

import (
	"math/rand"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// ransacFixture builds a correspondence set with a known rigid motion and
// a controllable outlier fraction, the shape RANSAC exists to clean up.
func ransacFixture(n int, outlierFrac float64, seed int64) ([]Correspondence, []geom.Vec3, []geom.Vec3) {
	rng := rand.New(rand.NewSource(seed))
	tr := geom.Transform{R: geom.RotZ(0.2), T: geom.Vec3{X: 1.5, Y: -0.7, Z: 0.1}}
	srcPts := make([]geom.Vec3, n)
	dstPts := make([]geom.Vec3, n)
	corr := make([]Correspondence, n)
	for i := range srcPts {
		srcPts[i] = geom.Vec3{X: rng.Float64() * 30, Y: rng.Float64() * 30, Z: rng.Float64() * 4}
		if rng.Float64() < outlierFrac {
			dstPts[i] = geom.Vec3{X: rng.Float64() * 30, Y: rng.Float64() * 30, Z: rng.Float64() * 4}
		} else {
			noise := geom.Vec3{X: rng.NormFloat64() * 0.02, Y: rng.NormFloat64() * 0.02, Z: rng.NormFloat64() * 0.02}
			dstPts[i] = tr.Apply(srcPts[i]).Add(noise)
		}
		corr[i] = Correspondence{Source: i, Target: i, Dist2: rng.Float64()}
	}
	return corr, srcPts, dstPts
}

// TestRANSACParallelMatchesSerial: parallel hypothesis scoring must pick
// the exact inlier set the sequential loop picks — samples are pre-drawn
// from the same PCG stream and the consensus reduction tie-breaks
// deterministically — at every worker count.
func TestRANSACParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 7, 2019} {
		corr, srcPts, dstPts := ransacFixture(300, 0.35, seed)
		cfg := RejectionConfig{Method: RejectRANSAC, Seed: seed}

		want := RejectCorrespondences(corr, srcPts, dstPts, cfg, 1)
		if len(want) < 3 || len(want) >= len(corr) {
			t.Fatalf("seed %d: degenerate fixture (%d of %d inliers)", seed, len(want), len(corr))
		}

		for _, p := range []int{2, 3, 4, 8} {
			got := RejectCorrespondences(corr, srcPts, dstPts, cfg, p)
			if len(got) != len(want) {
				t.Fatalf("seed %d parallelism %d: %d inliers, serial found %d",
					seed, p, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d parallelism %d: inlier %d differs: %+v vs %+v",
						seed, p, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRANSACDegenerateFallback: all-collinear samples never produce a
// valid hypothesis, and the unfiltered set must come back — identically —
// at any parallelism.
func TestRANSACDegenerateFallback(t *testing.T) {
	n := 20
	srcPts := make([]geom.Vec3, n)
	dstPts := make([]geom.Vec3, n)
	corr := make([]Correspondence, n)
	for i := range srcPts {
		// Collinear points defeat 3-point rigid estimation.
		srcPts[i] = geom.Vec3{X: float64(i)}
		dstPts[i] = geom.Vec3{X: float64(i) + 1}
		corr[i] = Correspondence{Source: i, Target: i}
	}
	for _, p := range []int{1, 4} {
		got := RejectCorrespondences(corr, srcPts, dstPts, RejectionConfig{Method: RejectRANSAC, Seed: 3}, p)
		if len(got) != n {
			t.Fatalf("parallelism %d: degenerate fallback returned %d of %d", p, len(got), n)
		}
	}
}

// TestICPParallelErrorAccumulationMatchesSerial drives ICP alone — large
// enough that the fixed-chunk reductions in transform estimation span
// multiple chunks — and asserts bit-identical results across worker
// counts for both error metrics. ICP takes its width from the target
// searcher, so the target's width is what varies.
func TestICPParallelErrorAccumulationMatchesSerial(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 81))
	src := cloud.SlabFromCloud(seq.Frames[1])
	dst := cloud.SlabFromCloud(seq.Frames[0])
	if src.Len() <= accumChunk {
		t.Fatalf("fixture too small to span chunks: %d points", src.Len())
	}
	for _, metric := range []ErrorMetric{PointToPoint, PointToPlane} {
		tslab := dst.Clone()
		if metric == PointToPlane {
			// Cheap stand-in normals: the metric only needs a consistent
			// per-target-point direction to exercise the LM accumulation.
			tslab.EnsureNormals()
			for i := 0; i < tslab.Len(); i++ {
				tslab.SetNormal(i, geom.Vec3{Z: 1})
			}
		}
		target := search.NewKDSearcherSlab(tslab)
		cfg := ICPConfig{Metric: metric, MaxIterations: 8}

		run := func(p int) ICPResult {
			target.SetParallelism(p)
			return ICP(src, target, geom.IdentityTransform(), cfg)
		}
		want := run(1)
		for _, p := range []int{2, 4, 8} {
			got := run(p)
			if got.Transform != want.Transform {
				t.Errorf("%v parallelism %d: transform differs from serial\n%v\nvs\n%v",
					metric, p, got.Transform, want.Transform)
			}
			if got.Iterations != want.Iterations || got.FinalRMSE != want.FinalRMSE {
				t.Errorf("%v parallelism %d: convergence differs (%d/%g vs %d/%g)",
					metric, p, got.Iterations, got.FinalRMSE, want.Iterations, want.FinalRMSE)
			}
		}
	}
}

// TestEstimateRigidTransformParInvariant pins the reduction determinism
// at the unit level: multi-chunk inputs must give the same bits at any
// worker count.
func TestEstimateRigidTransformParInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 3*accumChunk + 517
	src := make([]geom.Vec3, n)
	dst := make([]geom.Vec3, n)
	tr := geom.Transform{R: geom.RotZ(0.3), T: geom.Vec3{X: 2}}
	for i := range src {
		src[i] = geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		dst[i] = tr.Apply(src[i])
	}
	want, ok := EstimateRigidTransformPar(src, dst, 1)
	if !ok {
		t.Fatal("estimation failed")
	}
	for _, w := range []int{2, 5, 16} {
		got, ok := EstimateRigidTransformPar(src, dst, w)
		if !ok || got != want {
			t.Fatalf("workers %d: transform differs from serial", w)
		}
	}
	srcS, dstS := cloud.SlabFromPoints(src), cloud.SlabFromPoints(dst)
	rmse1 := AlignmentRMSESlabPar(tr, srcS, dstS, 1)
	for _, w := range []int{3, 8} {
		if AlignmentRMSESlabPar(tr, srcS, dstS, w) != rmse1 {
			t.Fatalf("workers %d: RMSE differs from serial", w)
		}
	}
}

// TestAlignRepinsTargetParallelism: a frame may be prepared under one
// Parallelism and aligned against under another; Align must re-pin the
// reused target index to the cap of the config it was handed, not leave
// the RPCE batches at the prepare-time one.
func TestAlignRepinsTargetParallelism(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 83))
	cfg := pipelineTestConfig()
	cfg.VoxelLeaf = 0 // FE == Raw: FineTarget reuses the front-end index

	prepCfg := cfg
	prepCfg.Searcher.Parallelism = 6
	alignCfg := cfg
	alignCfg.Searcher.Parallelism = 2

	src := PrepareFrame(seq.Frames[1], prepCfg)
	dst := PrepareFrame(seq.Frames[0], prepCfg)
	if got := dst.FESearch.Parallelism(); got != 6 {
		t.Fatalf("prepare-time parallelism = %d, want 6", got)
	}
	Align(src, dst, alignCfg)
	if got := dst.FESearch.Parallelism(); got != 2 {
		t.Errorf("align left the reused target index at %d workers, want its own config's 2", got)
	}
}
