package registration

import (
	"math"
	"testing"

	"tigris/internal/features"
	"tigris/internal/geom"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// featDescriptors aliases the features type for test brevity.
type featDescriptors = features.Descriptors

func TestMotionPriorRejectsFlippedInitial(t *testing.T) {
	// The street scene is roughly 180°-rotation symmetric, so feature
	// matching can produce a *consistent* flipped hypothesis. The motion
	// prior must reject it (consecutive 10 Hz frames cannot flip).
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 40))
	cfg := pipelineTestConfig()
	res := Register(seq.Frames[1], seq.Frames[0], cfg)
	if res.Initial.RotationAngle() > 0.6+1e-9 {
		t.Errorf("initial rotation %v rad escaped the motion prior", res.Initial.RotationAngle())
	}
	if res.Initial.TranslationNorm() > 5+1e-9 {
		t.Errorf("initial translation %v m escaped the motion prior", res.Initial.TranslationNorm())
	}
}

func TestMotionPriorDisable(t *testing.T) {
	// Negative bounds disable the prior; the pipeline must still run.
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 41))
	cfg := pipelineTestConfig()
	cfg.MaxInitialTranslation = -1
	cfg.MaxInitialRotation = -1
	res := Register(seq.Frames[1], seq.Frames[0], cfg)
	if res.Total <= 0 {
		t.Error("pipeline with disabled prior did not run")
	}
}

func TestOtherTimeNonNegative(t *testing.T) {
	r := Result{}
	if r.OtherTime() != 0 {
		t.Error("zero result should have zero other time")
	}
	r.Total = 100
	r.KDSearchTime = 70
	r.KDBuildTime = 50 // over-attribution must clamp, not go negative
	if r.OtherTime() != 0 {
		t.Errorf("OtherTime = %v, want clamped 0", r.OtherTime())
	}
	r.KDBuildTime = 10
	if r.OtherTime() != 20 {
		t.Errorf("OtherTime = %v, want 20", r.OtherTime())
	}
}

func TestStageTimesTotal(t *testing.T) {
	s := StageTimes{
		NormalEstimation:      1,
		KeypointDetection:     2,
		DescriptorCalculation: 3,
		KPCE:                  4,
		Rejection:             5,
		RPCE:                  6,
		ErrorMinimization:     7,
	}
	if s.Total() != 28 {
		t.Errorf("Total = %v", s.Total())
	}
}

func TestRegisterWithTwoStageApproxKeepsAccuracy(t *testing.T) {
	// §6.3: the approximate thresholds have no impact on translational
	// error and negligible rotational impact. Verify on an eval-scale pair
	// (slow test, but it is the paper's headline accuracy claim).
	if testing.Short() {
		t.Skip("eval-scale registration in -short mode")
	}
	seq := synth.GenerateSequence(synth.EvalSequenceConfig(2, 44))
	truth := seq.GroundTruthDelta(0)

	exact := pipelineTestConfig()
	exact.Searcher = SearcherConfig{Backend: search.BackendTwoStage}
	eExact := EvaluatePair(Register(seq.Frames[1], seq.Frames[0], exact).Transform, truth)

	approx := pipelineTestConfig()
	approx.Searcher = SearcherConfig{Backend: search.BackendTwoStageApprox}
	eApprox := EvaluatePair(Register(seq.Frames[1], seq.Frames[0], approx).Transform, truth)

	if eApprox.TranslationalPct > eExact.TranslationalPct+3 {
		t.Errorf("approximate search cost %.2f%% translational accuracy (exact %.2f%%)",
			eApprox.TranslationalPct-eExact.TranslationalPct, eExact.TranslationalPct)
	}
	if math.Abs(eApprox.RotationalDegPerM-eExact.RotationalDegPerM) > 0.1 {
		t.Errorf("approximate search changed rotational error: %.4f vs %.4f",
			eApprox.RotationalDegPerM, eExact.RotationalDegPerM)
	}
}

func TestRejectionAndMetricStrings(t *testing.T) {
	if RejectThreshold.String() != "Threshold" || RejectRANSAC.String() != "RANSAC" {
		t.Error("rejection method strings wrong")
	}
	if PointToPoint.String() != "PointToPoint" || PointToPlane.String() != "PointToPlane" {
		t.Error("error metric strings wrong")
	}
	if ErrorMetric(9).String() != "UnknownErrorMetric" || RejectionMethod(9).String() != "UnknownRejection" {
		t.Error("unknown enum strings wrong")
	}
}

func TestBruteKthFeatureFallback(t *testing.T) {
	d := descriptorsFromRows(2, [][]float64{{0, 0}, {3, 4}})
	row, d2, ok := bruteKthFeature(d, []float64{0, 0}, 5)
	if !ok || row != 1 || math.Abs(d2-25) > 1e-12 {
		t.Errorf("fallback = row %d d2 %v ok %v", row, d2, ok)
	}
	if _, _, ok := bruteKthFeature(descriptorsFromRows(2, nil), []float64{0, 0}, 1); ok {
		t.Error("empty descriptor set should not match")
	}
}

func TestInitialGuardLowRatio(t *testing.T) {
	// A tiny inlier set must trigger the identity fallback even when the
	// transform itself is plausible.
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 45))
	cfg := pipelineTestConfig()
	// Absurd RANSAC inlier distance forces near-zero inliers.
	cfg.Rejection.RANSACInlierDist = 1e-9
	res := Register(seq.Frames[1], seq.Frames[0], cfg)
	if !res.Initial.NearlyEqual(geom.IdentityTransform(), 1e-12) {
		t.Errorf("expected identity fallback, got %v", res.Initial)
	}
}

// descriptorsFromRows builds a Descriptors matrix for tests.
func descriptorsFromRows(dim int, rows [][]float64) *featDescriptors {
	d := &featDescriptors{Dim: dim}
	for _, r := range rows {
		d.Data = append(d.Data, r...)
	}
	return d
}
