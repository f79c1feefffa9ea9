package registration

import (
	"math"
	"math/rand"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/features"
	"tigris/internal/geom"
	"tigris/internal/search"
	"tigris/internal/synth"
)

func randTransformSmall(r *rand.Rand) geom.Transform {
	axis := geom.Vec3{X: r.Float64() - 0.5, Y: r.Float64() - 0.5, Z: r.Float64() - 0.5}
	if axis.Norm() < 1e-9 {
		axis = geom.Vec3{Z: 1}
	}
	return geom.Transform{
		R: geom.AxisAngle(axis, (r.Float64()-0.5)*0.2),
		T: geom.Vec3{X: r.Float64() - 0.5, Y: r.Float64() - 0.5, Z: (r.Float64() - 0.5) * 0.2},
	}
}

// structuredCloud builds a small scene with enough 3D structure for
// registration to be well-posed (ground + two walls + a box).
func structuredCloud(r *rand.Rand, n int) *cloud.Slab {
	pts := make([]geom.Vec3, 0, n)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0: // ground
			pts = append(pts, geom.Vec3{X: r.Float64()*20 - 10, Y: r.Float64()*20 - 10, Z: 0})
		case 1: // wall x=8
			pts = append(pts, geom.Vec3{X: 8, Y: r.Float64()*20 - 10, Z: r.Float64() * 4})
		case 2: // wall y=-6
			pts = append(pts, geom.Vec3{X: r.Float64()*20 - 10, Y: -6, Z: r.Float64() * 4})
		default: // box
			pts = append(pts, geom.Vec3{X: 2 + r.Float64(), Y: 1 + r.Float64(), Z: r.Float64() * 1.5})
		}
	}
	return cloud.SlabFromPoints(pts)
}

func TestEstimateRigidTransformRecovers(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(50)
		src := make([]geom.Vec3, n)
		for i := range src {
			src[i] = geom.Vec3{X: r.Float64()*10 - 5, Y: r.Float64()*10 - 5, Z: r.Float64()*10 - 5}
		}
		truth := randTransformSmall(r)
		dst := make([]geom.Vec3, n)
		for i := range dst {
			dst[i] = truth.Apply(src[i])
		}
		got, ok := EstimateRigidTransform(src, dst)
		if !ok {
			// Nearly collinear triples can be degenerate; only tiny n.
			if n > 4 {
				t.Fatalf("estimation failed with n=%d", n)
			}
			continue
		}
		if !got.NearlyEqual(truth, 1e-6) {
			t.Fatalf("recovered %v, want %v", got, truth)
		}
	}
}

func TestEstimateRigidTransformDegenerate(t *testing.T) {
	if _, ok := EstimateRigidTransform(nil, nil); ok {
		t.Error("empty input accepted")
	}
	src := []geom.Vec3{{X: 1}, {X: 2}}
	if _, ok := EstimateRigidTransform(src, src); ok {
		t.Error("two points accepted")
	}
	mismatch := []geom.Vec3{{X: 1}, {X: 2}, {X: 3}}
	if _, ok := EstimateRigidTransform(mismatch, mismatch[:2]); ok {
		t.Error("length mismatch accepted")
	}
}

func TestEstimateRigidTransformWithNoise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	src := make([]geom.Vec3, 200)
	for i := range src {
		src[i] = geom.Vec3{X: r.Float64() * 10, Y: r.Float64() * 10, Z: r.Float64() * 10}
	}
	truth := randTransformSmall(r)
	dst := make([]geom.Vec3, len(src))
	for i := range dst {
		dst[i] = truth.Apply(src[i]).Add(geom.Vec3{
			X: r.NormFloat64() * 0.01, Y: r.NormFloat64() * 0.01, Z: r.NormFloat64() * 0.01,
		})
	}
	got, ok := EstimateRigidTransform(src, dst)
	if !ok {
		t.Fatal("estimation failed")
	}
	if got.T.Dist(truth.T) > 0.01 || got.R.Mul(truth.R.Transpose()).RotationAngle() > 0.01 {
		t.Fatalf("noisy recovery too far off: %v vs %v", got, truth)
	}
}

func TestEstimatePointToPlaneRecovers(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// Points on three non-parallel planes fully constrain the transform.
	c := structuredCloud(r, 600)
	s := search.NewKDSearcherSlab(c)
	features.EstimateNormals(c, s, features.NormalConfig{SearchRadius: 1.5})
	truth := randTransformSmall(r)
	inv := truth.Inverse()
	src := c.Clone()
	src.TransformInPlace(inv) // so truth maps src back onto c
	got, ok := EstimatePointToPlaneSlab(src, c)
	if !ok {
		t.Fatal("point-to-plane failed")
	}
	if got.T.Dist(truth.T) > 0.02 || got.R.Mul(truth.R.Transpose()).RotationAngle() > 0.02 {
		t.Fatalf("point-to-plane recovery off: %v vs %v", got, truth)
	}
}

func TestICPConvergesOnStructuredCloud(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	dst := structuredCloud(r, 3000)
	truth := randTransformSmall(r)
	inv := truth.Inverse()
	srcPts := make([]geom.Vec3, 0, dst.Len())
	for i := 0; i < dst.Len(); i++ {
		srcPts = append(srcPts, inv.Apply(dst.At(i)))
	}
	src := cloud.SlabFromPoints(srcPts)
	target := search.NewKDSearcherSlab(dst)

	for _, metric := range []ErrorMetric{PointToPoint, PointToPlane} {
		if metric == PointToPlane {
			// Normals land in the shared target slab, flipping ICP's
			// point-to-plane path on.
			features.EstimateNormals(dst, target, features.NormalConfig{SearchRadius: 1.5})
		}
		res := ICP(src, target, geom.IdentityTransform(), ICPConfig{
			Metric:        metric,
			MaxIterations: 50,
		})
		errPair := EvaluatePair(res.Transform, truth)
		if res.Transform.T.Dist(truth.T) > 0.05 {
			t.Errorf("%v: ICP translation off by %v", metric, res.Transform.T.Dist(truth.T))
		}
		if errPair.RotationalDegPerM > 5 {
			t.Errorf("%v: ICP rotation error %v deg/m", metric, errPair.RotationalDegPerM)
		}
	}
}

func TestICPStrideReducesWork(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	dst := structuredCloud(r, 2000)
	src := dst.Clone()
	target := search.NewKDSearcherSlab(dst)
	before := target.Metrics().Queries
	ICP(src, target, geom.IdentityTransform(), ICPConfig{SourceStride: 4, MaxIterations: 2})
	afterStride := target.Metrics().Queries - before
	ICP(src, target, geom.IdentityTransform(), ICPConfig{SourceStride: 1, MaxIterations: 2})
	afterFull := target.Metrics().Queries - before - afterStride
	if afterStride >= afterFull {
		t.Errorf("stride 4 issued %d queries, full %d", afterStride, afterFull)
	}
}

func TestKPCEAndRejection(t *testing.T) {
	// Build descriptors where correspondences are unambiguous, then check
	// KPCE matching, reciprocity, and both rejectors.
	dim := 8
	mk := func(rows ...[]float64) *features.Descriptors {
		d := &features.Descriptors{Dim: dim}
		for _, r := range rows {
			d.Data = append(d.Data, r...)
		}
		return d
	}
	v := func(seed float64) []float64 {
		row := make([]float64, dim)
		for i := range row {
			row[i] = seed + float64(i)*0.1
		}
		return row
	}
	src := mk(v(0), v(10), v(20))
	dst := mk(v(20.01), v(0.01), v(10.01))
	corr, _, _ := kpceMatch(src, dst, KPCEConfig{}, 0)
	if len(corr) != 3 {
		t.Fatalf("expected 3 correspondences, got %d", len(corr))
	}
	want := map[int]int{0: 1, 1: 2, 2: 0}
	for _, c := range corr {
		if want[c.Source] != c.Target {
			t.Fatalf("correspondence %d -> %d, want %d", c.Source, c.Target, want[c.Source])
		}
	}
	recip, _, _ := kpceMatch(src, dst, KPCEConfig{Reciprocal: true}, 0)
	if len(recip) != 3 {
		t.Fatalf("reciprocal dropped valid matches: %d", len(recip))
	}
}

func TestThresholdRejection(t *testing.T) {
	corr := []Correspondence{
		{Source: 0, Target: 0, Dist2: 1},
		{Source: 1, Target: 1, Dist2: 1.2},
		{Source: 2, Target: 2, Dist2: 0.9},
		{Source: 3, Target: 3, Dist2: 400}, // outlier
	}
	out := RejectCorrespondences(corr, nil, nil, RejectionConfig{Method: RejectThreshold}, 0)
	if len(out) != 3 {
		t.Fatalf("threshold kept %d, want 3", len(out))
	}
	for _, c := range out {
		if c.Source == 3 {
			t.Fatal("outlier survived threshold rejection")
		}
	}
}

func TestRANSACRejectsOutliers(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	truth := randTransformSmall(r)
	n := 40
	srcPts := make([]geom.Vec3, n)
	dstPts := make([]geom.Vec3, n)
	corr := make([]Correspondence, n)
	for i := 0; i < n; i++ {
		srcPts[i] = geom.Vec3{X: r.Float64() * 10, Y: r.Float64() * 10, Z: r.Float64() * 3}
		if i < 30 {
			dstPts[i] = truth.Apply(srcPts[i])
		} else {
			// Gross outliers.
			dstPts[i] = geom.Vec3{X: r.Float64()*100 - 50, Y: r.Float64()*100 - 50, Z: r.Float64() * 50}
		}
		corr[i] = Correspondence{Source: i, Target: i}
	}
	out := RejectCorrespondences(corr, srcPts, dstPts, RejectionConfig{Method: RejectRANSAC, Seed: 9}, 0)
	if len(out) < 25 || len(out) > 32 {
		t.Fatalf("RANSAC kept %d, want ~30 inliers", len(out))
	}
	for _, c := range out {
		if c.Source >= 30 {
			t.Fatalf("RANSAC kept outlier %d", c.Source)
		}
	}
}

func TestRANSACDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	truth := randTransformSmall(r)
	srcPts := make([]geom.Vec3, 20)
	dstPts := make([]geom.Vec3, 20)
	corr := make([]Correspondence, 20)
	for i := range srcPts {
		srcPts[i] = geom.Vec3{X: r.Float64() * 10, Y: r.Float64() * 10, Z: r.Float64()}
		dstPts[i] = truth.Apply(srcPts[i])
		corr[i] = Correspondence{Source: i, Target: i}
	}
	a := RejectCorrespondences(corr, srcPts, dstPts, RejectionConfig{Method: RejectRANSAC, Seed: 5}, 0)
	b := RejectCorrespondences(corr, srcPts, dstPts, RejectionConfig{Method: RejectRANSAC, Seed: 5}, 0)
	if len(a) != len(b) {
		t.Fatal("same seed produced different inlier counts")
	}
}

func TestEvaluatePair(t *testing.T) {
	truth := geom.Transform{R: geom.RotZ(0.1), T: geom.Vec3{X: 2}}
	perfect := EvaluatePair(truth, truth)
	if perfect.TranslationalPct > 1e-9 || perfect.RotationalDegPerM > 1e-9 {
		t.Errorf("perfect estimate has error %+v", perfect)
	}
	// 10 cm translation error over a 2 m step = 5%.
	off := geom.Transform{R: truth.R, T: truth.T.Add(geom.Vec3{Y: 0.1})}
	e := EvaluatePair(off, truth)
	if math.Abs(e.TranslationalPct-5) > 0.2 {
		t.Errorf("translational error = %v%%, want ~5%%", e.TranslationalPct)
	}
}

func TestAggregate(t *testing.T) {
	errs := []FrameError{
		{TranslationalPct: 1, RotationalDegPerM: 0.1},
		{TranslationalPct: 3, RotationalDegPerM: 0.3},
	}
	agg := Aggregate(errs)
	if math.Abs(agg.MeanTranslationalPct-2) > 1e-12 || agg.Frames != 2 {
		t.Errorf("aggregate = %+v", agg)
	}
	if math.Abs(agg.StdevTranslationalPct-1) > 1e-12 {
		t.Errorf("stdev = %v", agg.StdevTranslationalPct)
	}
	if Aggregate(nil).Frames != 0 {
		t.Error("empty aggregate should have 0 frames")
	}
}

// pipelineTestConfig returns a config sized for test speed.
func pipelineTestConfig() PipelineConfig {
	return PipelineConfig{
		VoxelLeaf:  0.4,
		Normal:     features.NormalConfig{SearchRadius: 0.8},
		Keypoint:   features.KeypointConfig{Method: features.Harris3D, Radius: 1.0, ResponseQuantile: 0.9, MaxKeypoints: 150},
		Descriptor: features.DescriptorConfig{Method: features.FPFH, SearchRadius: 1.2},
		Rejection:  RejectionConfig{Method: RejectRANSAC, Seed: 1},
		// Point-to-plane: on LiDAR street scenes the sensor-centric ground
		// rings pull point-to-point ICP toward zero motion, while the
		// point-to-plane residual lets the ground slide freely and the
		// vertical structure determine the translation.
		ICP: ICPConfig{
			Metric:                  PointToPlane,
			MaxIterations:           40,
			SourceStride:            2,
			EuclideanFitnessEpsilon: 1e-8,
		},
	}
}

func TestRegisterEndToEndOnSyntheticFrames(t *testing.T) {
	seq := synth.GenerateSequence(synth.EvalSequenceConfig(2, 21))
	truth := seq.GroundTruthDelta(0)
	res := Register(seq.Frames[1], seq.Frames[0], pipelineTestConfig())
	e := EvaluatePair(res.Transform, truth)
	// The paper's Fig. 3 design points land between 2.1% and 3.6%
	// translational error on KITTI; allow headroom for the synthetic
	// substrate.
	if e.TranslationalPct > 10 {
		t.Errorf("translational error %.1f%% too high", e.TranslationalPct)
	}
	if e.RotationalDegPerM > 0.2 {
		t.Errorf("rotational error %.3f deg/m too high", e.RotationalDegPerM)
	}
	if res.Total <= 0 || res.Stage.Total() <= 0 {
		t.Error("timings not recorded")
	}
	if res.KDSearchTime <= 0 {
		t.Error("KD search time not recorded")
	}
	if res.SrcKeypoints == 0 || res.Correspondences == 0 {
		t.Errorf("front-end produced no features: %+v", res)
	}
}

func TestRegisterSearcherVariantsAgree(t *testing.T) {
	// The two-stage exact searcher must produce identical geometry to the
	// canonical searcher; the approximate variant must stay close.
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 22))
	truth := seq.GroundTruthDelta(0)

	base := pipelineTestConfig()
	var errs []float64
	for _, name := range []string{search.BackendCanonical, search.BackendTwoStage, search.BackendTwoStageApprox} {
		cfg := base
		cfg.Searcher = SearcherConfig{Backend: name}
		res := Register(seq.Frames[1], seq.Frames[0], cfg)
		e := EvaluatePair(res.Transform, truth)
		errs = append(errs, e.TranslationalPct)
	}
	if math.Abs(errs[0]-errs[1]) > 3 {
		t.Errorf("exact two-stage diverged: %.2f%% vs %.2f%%", errs[0], errs[1])
	}
	// The approximate searcher is allowed modest degradation (the paper
	// reports near-zero translational impact; we allow slack for the small
	// test frames).
	if errs[2] > errs[0]+10 {
		t.Errorf("approximate searcher degraded too far: %.2f%% vs %.2f%%", errs[2], errs[0])
	}
}

func TestErrorInjectionDenseVsSparse(t *testing.T) {
	// Fig. 7a's qualitative claim: k-th NN injection into dense RPCE is
	// tolerable, while the same injection into sparse KPCE hurts much
	// more. Check the directional relationship on one frame pair.
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 23))
	truth := seq.GroundTruthDelta(0)

	run := func(inject Injection) float64 {
		cfg := pipelineTestConfig()
		cfg.Inject = inject
		res := Register(seq.Frames[1], seq.Frames[0], cfg)
		return EvaluatePair(res.Transform, truth).TranslationalPct
	}
	clean := run(Injection{})
	denseK3 := run(Injection{RPCEKthNN: 3})
	if denseK3 > clean+20 {
		t.Errorf("dense injection k=3 degraded too much: %.1f%% vs %.1f%%", denseK3, clean)
	}
}

func TestRegisterShellInjectionRuns(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 24))
	cfg := pipelineTestConfig()
	shell := [2]float64{0.3, 1.0}
	cfg.Inject = Injection{NEShell: &shell}
	res := Register(seq.Frames[1], seq.Frames[0], cfg)
	if res.Total <= 0 {
		t.Error("shell-injected pipeline did not run")
	}
}
