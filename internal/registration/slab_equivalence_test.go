package registration

import (
	"math/rand"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/synth"
)

// The point-to-point solve exists over slabs (ICP's correspondences) and
// over []geom.Vec3 (RANSAC's key-point lists). On the same
// (float32-representable) correspondences the two must be bit-identical:
// both dequantize to float64 and fold in the same accumChunk order, so
// the layout alone cannot move a single bit. These tests pin that
// equivalence, then check the end-to-end trajectory stays within
// tolerance of ground truth under the one-time float32 quantization.

func snappedCorrespondences(r *rand.Rand, n int) (srcPts, dstPts []geom.Vec3) {
	tr := geom.Transform{R: geom.RotZ(0.25).Mul(geom.RotX(0.1)), T: geom.Vec3{X: 1.2, Y: -0.4, Z: 0.2}}
	srcPts = make([]geom.Vec3, n)
	dstPts = make([]geom.Vec3, n)
	for i := range srcPts {
		srcPts[i] = geom.Vec3{
			X: r.Float64()*20 - 10,
			Y: r.Float64()*20 - 10,
			Z: r.Float64() * 4,
		}.Quantize32()
		dstPts[i] = tr.Apply(srcPts[i]).Add(geom.Vec3{
			X: r.NormFloat64() * 0.01,
			Y: r.NormFloat64() * 0.01,
			Z: r.NormFloat64() * 0.01,
		}).Quantize32()
	}
	return srcPts, dstPts
}

func TestSlabSolversBitIdenticalToAoS(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	// Spans multiple accumChunk blocks so the parallel folding is
	// exercised, plus small sizes for the sequential path.
	for _, n := range []int{6, 500, 3*accumChunk + 71} {
		srcPts, dstPts := snappedCorrespondences(r, n)
		src, dst := cloud.SlabFromPoints(srcPts), cloud.SlabFromPoints(dstPts)
		for _, workers := range []int{1, 2, 4} {
			aosT, aosOK := estimateRigidTransformPar(srcPts, dstPts, workers)
			soaT, soaOK := estimateRigidTransformSlabPar(src, dst, workers)
			if aosOK != soaOK || aosT != soaT {
				t.Fatalf("n=%d p=%d: point-to-point differs\nAoS %v\nSoA %v", n, workers, aosT, soaT)
			}
		}
	}
}

func TestSlabSolverGuards(t *testing.T) {
	empty := cloud.NewSlab(0)
	if _, ok := estimateRigidTransformSlabPar(empty, empty, 1); ok {
		t.Error("empty slabs accepted by point-to-point")
	}
	five := cloud.NewSlab(5)
	five.EnsureNormals()
	if _, ok := estimatePointToPlaneSlabPar(five, five, 1); ok {
		t.Error("5 correspondences accepted by point-to-plane (needs 6)")
	}
	noNormals := cloud.NewSlab(10)
	if _, ok := estimatePointToPlaneSlabPar(noNormals, noNormals, 1); ok {
		t.Error("normal-less target accepted by point-to-plane")
	}
	mismatch := cloud.NewSlab(4)
	if _, ok := estimateRigidTransformSlabPar(mismatch, cloud.NewSlab(3), 1); ok {
		t.Error("length mismatch accepted")
	}
	if alignmentRMSESlabPar(geom.IdentityTransform(), empty, empty, 1) != 0 {
		t.Error("empty RMSE not 0")
	}
}

// TestSlabTrajectoryWithinTolerance: the float32 data layout must not
// move the odometry trajectory beyond noise. Per-pair translational error
// against ground truth stays inside the same envelope the AoS pipeline
// met (TestRegisterEndToEndOnSyntheticFrames' bound), and the composed
// multi-frame trajectory lands within centimeters of truth — the
// quantization step (~1e-7 relative) is invisible at trajectory scale.
func TestSlabTrajectoryWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-frame pipeline run")
	}
	const frames = 4
	seq := synth.GenerateSequence(synth.EvalSequenceConfig(frames, 29))
	cfg := pipelineTestConfig()

	pose := geom.IdentityTransform()
	truthPose := geom.IdentityTransform()
	for i := 1; i < frames; i++ {
		res := Register(seq.Frames[i], seq.Frames[i-1], cfg)
		truth := seq.GroundTruthDelta(i - 1)
		e := EvaluatePair(res.Transform, truth)
		if e.TranslationalPct > 10 {
			t.Errorf("pair %d: translational error %.1f%% exceeds AoS envelope", i, e.TranslationalPct)
		}
		pose = pose.Compose(res.Transform)
		truthPose = truthPose.Compose(truth)
	}
	ate := pose.T.Dist(truthPose.T)
	if ate > 0.25 {
		t.Errorf("composed trajectory endpoint %.3f m from truth", ate)
	}
}
