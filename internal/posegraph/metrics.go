package posegraph

import (
	"math"

	"tigris/internal/geom"
)

// Trajectory-level accuracy metrics, the SLAM counterparts of the
// KITTI-style per-pair errors in internal/registration: ATE measures
// global consistency (what loop closure + optimization improve).

// ATEResult summarizes absolute trajectory error.
type ATEResult struct {
	// RMSE / Mean / Max of the per-frame translational error in meters.
	RMSE, Mean, Max float64
	// Frames compared.
	Frames int
}

// ATE computes the absolute trajectory error of est against ref after
// anchoring both at their first pose (P'_k = P_0⁻¹ ∘ P_k), the standard
// evaluation for trajectories that share their origin by construction.
// The slices must have equal length ≥ 1.
func ATE(est, ref []geom.Transform) ATEResult {
	n := len(est)
	if len(ref) < n {
		n = len(ref)
	}
	var out ATEResult
	if n == 0 {
		return out
	}
	e0 := est[0].Inverse()
	r0 := ref[0].Inverse()
	var sum, sum2 float64
	for k := 0; k < n; k++ {
		ep := e0.Compose(est[k])
		rp := r0.Compose(ref[k])
		d := math.Sqrt(ep.T.Sub(rp.T).Norm2())
		sum += d
		sum2 += d * d
		if d > out.Max {
			out.Max = d
		}
	}
	out.Frames = n
	out.Mean = sum / float64(n)
	out.RMSE = math.Sqrt(sum2 / float64(n))
	return out
}
