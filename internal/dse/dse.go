// Package dse implements the paper's §3 design-space exploration: a grid
// over the registration pipeline's algorithmic and parametric knobs
// (Tbl. 1), per-design-point evaluation on a synthetic sequence, Pareto
// frontier extraction (Fig. 3), and the stage/KD-tree time breakdowns
// (Fig. 4). It also defines the eight named Pareto-optimal design points
// DP1–DP8 the paper carries through its evaluation, with the §6.3 anchors:
// DP4 is performance-oriented (NE radius 0.30 m), DP7 accuracy-oriented
// (NE radius 0.75 m).
package dse

import (
	"time"

	"tigris/internal/registration"
	"tigris/internal/synth"
)

// DesignPoint names one pipeline configuration.
type DesignPoint struct {
	Name   string
	Config registration.PipelineConfig
}

// Evaluated is one design point's measured outcome over a sequence.
type Evaluated struct {
	Point DesignPoint
	// Error aggregates KITTI-style frame errors.
	Error registration.SequenceError
	// MeanTime is the mean end-to-end registration time per frame pair.
	MeanTime time.Duration
	// Stage is the mean per-stage time (Fig. 4a).
	Stage registration.StageTimes
	// KDSearch / KDBuild are the mean Fig. 4b components; Other is the
	// remainder.
	KDSearch, KDBuild, Other time.Duration
}

// Evaluate runs the design point on every consecutive frame pair of the
// sequence and aggregates errors and timings.
func Evaluate(seq *synth.Sequence, dp DesignPoint) Evaluated {
	out := Evaluated{Point: dp}
	pairs := seq.Len() - 1
	if pairs <= 0 {
		return out
	}
	var errs []registration.FrameError
	for i := 0; i < pairs; i++ {
		res := registration.Register(seq.Frames[i+1], seq.Frames[i], dp.Config)
		errs = append(errs, registration.EvaluatePair(res.Transform, seq.GroundTruthDelta(i)))
		out.MeanTime += res.Total
		out.KDSearch += res.KDSearchTime
		out.KDBuild += res.KDBuildTime
		out.Other += res.OtherTime()
		out.Stage.NormalEstimation += res.Stage.NormalEstimation
		out.Stage.KeypointDetection += res.Stage.KeypointDetection
		out.Stage.DescriptorCalculation += res.Stage.DescriptorCalculation
		out.Stage.KPCE += res.Stage.KPCE
		out.Stage.Rejection += res.Stage.Rejection
		out.Stage.RPCE += res.Stage.RPCE
		out.Stage.ErrorMinimization += res.Stage.ErrorMinimization
	}
	out.Error = registration.Aggregate(errs)
	st := &out.Stage
	for _, sum := range []*time.Duration{&out.MeanTime, &out.KDSearch, &out.KDBuild, &out.Other,
		&st.NormalEstimation, &st.KeypointDetection, &st.DescriptorCalculation, &st.KPCE, &st.Rejection, &st.RPCE, &st.ErrorMinimization} {
		*sum /= time.Duration(pairs)
	}
	return out
}

// ParetoFront returns the subset of evaluations not dominated in the
// (error, time) plane: a point is dominated when another point is no
// worse in both dimensions and strictly better in one. errOf selects the
// error dimension (translational for Fig. 3a, rotational for Fig. 3b).
func ParetoFront(evals []Evaluated, errOf func(*Evaluated) float64) []Evaluated {
	var front []Evaluated
	for i := range evals {
		dominated := false
		ei, ti := errOf(&evals[i]), evals[i].MeanTime
		for j := range evals {
			if i == j {
				continue
			}
			ej, tj := errOf(&evals[j]), evals[j].MeanTime
			if ej <= ei && tj <= ti && (ej < ei || tj < ti) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, evals[i])
		}
	}
	return front
}

// TranslationalError selects Fig. 3a's error dimension.
func TranslationalError(e *Evaluated) float64 { return e.Error.MeanTranslationalPct }

// RotationalError selects Fig. 3b's error dimension.
func RotationalError(e *Evaluated) float64 { return e.Error.MeanRotationalDegPerM }
