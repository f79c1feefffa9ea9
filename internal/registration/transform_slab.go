package registration

import (
	"math"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/linalg"
)

// This file holds the error-minimization reductions ICP runs over
// correspondence slabs (cloud.Slab): Umeyama point-to-point, point-to-plane
// LM, and RMSE. ICP gathers its correspondences directly into pooled
// slabs; every accumulation dequantizes to float64 and folds in
// accumChunk order, keeping results bit-identical at any Parallelism for
// the same (float32) inputs.

// EstimateRigidTransformSlab solves the point-to-point alignment over
// paired correspondence slabs (see EstimateRigidTransform).
func EstimateRigidTransformSlab(src, dst *cloud.Slab) (geom.Transform, bool) {
	return EstimateRigidTransformSlabPar(src, dst, 1)
}

// EstimateRigidTransformSlabPar is EstimateRigidTransformSlab with the
// centroid and cross-covariance accumulation spread over up to `workers`
// goroutines; results are bit-identical at any worker count (see
// accumChunk).
func EstimateRigidTransformSlabPar(src, dst *cloud.Slab, workers int) (geom.Transform, bool) {
	if src.Len() != dst.Len() || src.Len() < 3 {
		return geom.IdentityTransform(), false
	}
	n := float64(src.Len())
	cp := reduceChunks(src.Len(), workers,
		func(lo, hi int) centroidPart {
			var p centroidPart
			for i := lo; i < hi; i++ {
				p.cs = p.cs.Add(src.At(i))
				p.cd = p.cd.Add(dst.At(i))
			}
			return p
		},
		func(a, b centroidPart) centroidPart {
			a.cs = a.cs.Add(b.cs)
			a.cd = a.cd.Add(b.cd)
			return a
		})
	cs := cp.cs.Scale(1 / n)
	cd := cp.cd.Scale(1 / n)

	h := reduceChunks(src.Len(), workers,
		func(lo, hi int) geom.Mat3 {
			var hp geom.Mat3
			for i := lo; i < hi; i++ {
				hp = hp.Add(geom.OuterProduct(src.At(i).Sub(cs), dst.At(i).Sub(cd)))
			}
			return hp
		},
		geom.Mat3.Add)
	return rigidFromStats(h, cs, cd)
}

// EstimatePointToPlaneSlab solves the point-to-plane alignment over
// correspondence slabs: find the rigid T minimizing Σ((T(srcᵢ)−dstᵢ)·nᵢ)²,
// with nᵢ the target surface normal dst must carry. It runs
// Levenberg–Marquardt over a 6-DoF twist (rx, ry, rz, tx, ty, tz) with the
// analytic Jacobian of the linearized residual: for the residual
// r = (R·s + t − d)·n, ∂r/∂ξ = [ (R·s)×n ; n ] at the current estimate —
// the standard ICP linearization (Low 2004) the paper's LM solver [45]
// choice corresponds to.
func EstimatePointToPlaneSlab(src, dst *cloud.Slab) (geom.Transform, bool) {
	return EstimatePointToPlaneSlabPar(src, dst, 1)
}

// EstimatePointToPlaneSlabPar is EstimatePointToPlaneSlab with the
// normal-equation and cost accumulations spread over up to `workers`
// goroutines; results are bit-identical at any worker count.
func EstimatePointToPlaneSlabPar(src, dst *cloud.Slab, workers int) (geom.Transform, bool) {
	if src.Len() != dst.Len() || !dst.HasNormals() || src.Len() < 6 {
		return geom.IdentityTransform(), false
	}
	cur := geom.IdentityTransform()
	lambda := 1e-4
	cost := pointToPlaneCostSlab(cur, src, dst, workers)
	// A handful of damped Gauss-Newton steps suffices: the outer ICP loop
	// re-linearizes anyway.
	for iter := 0; iter < 6; iter++ {
		eq := reduceChunks(src.Len(), workers,
			func(lo, hi int) normalEqPart {
				var p normalEqPart
				for i := lo; i < hi; i++ {
					s := cur.Apply(src.At(i))
					n := dst.NormalAt(i)
					r := s.Sub(dst.At(i)).Dot(n)
					c := s.Cross(n)
					row := [6]float64{c.X, c.Y, c.Z, n.X, n.Y, n.Z}
					for a := 0; a < 6; a++ {
						p.jtr[a] += row[a] * r
						for b := a; b < 6; b++ {
							p.jtj[a*6+b] += row[a] * row[b]
						}
					}
				}
				return p
			},
			normalEqPart.add)
		jtj, jtr := eq.jtj, eq.jtr
		for a := 0; a < 6; a++ {
			for b := 0; b < a; b++ {
				jtj[a*6+b] = jtj[b*6+a]
			}
		}
		var neg [6]float64
		for a := 0; a < 6; a++ {
			neg[a] = -jtr[a]
		}
		improved := false
		for attempt := 0; attempt < 8; attempt++ {
			damped := jtj
			for a := 0; a < 6; a++ {
				d := jtj[a*6+a]
				if d == 0 {
					d = 1
				}
				damped[a*6+a] += lambda * d
			}
			delta, err := linalg.SolveDense(damped[:], neg[:])
			if err != nil {
				lambda *= 10
				continue
			}
			trial := twistToTransform(delta).Compose(cur)
			trialCost := pointToPlaneCostSlab(trial, src, dst, workers)
			if trialCost < cost {
				cur = trial
				cost = trialCost
				lambda = math.Max(lambda*0.3, 1e-12)
				improved = true
				if vecNorm6(delta) < 1e-10 {
					return cur, true
				}
				break
			}
			lambda *= 10
		}
		if !improved {
			break
		}
	}
	return cur, true
}

func pointToPlaneCostSlab(t geom.Transform, src, dst *cloud.Slab, workers int) float64 {
	return reduceChunks(src.Len(), workers,
		func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				r := t.Apply(src.At(i)).Sub(dst.At(i)).Dot(dst.NormalAt(i))
				s += r * r
			}
			return s
		},
		func(a, b float64) float64 { return a + b })
}

// AlignmentRMSESlab returns the root-mean-square point-to-point error of
// the transform over the correspondence slabs; the ICP convergence
// criterion watches it.
func AlignmentRMSESlab(tr geom.Transform, src, dst *cloud.Slab) float64 {
	return AlignmentRMSESlabPar(tr, src, dst, 1)
}

// AlignmentRMSESlabPar is AlignmentRMSESlab with the squared-error
// accumulation spread over up to `workers` goroutines; results are
// bit-identical at any worker count.
func AlignmentRMSESlabPar(tr geom.Transform, src, dst *cloud.Slab, workers int) float64 {
	if src.Len() == 0 {
		return 0
	}
	s := reduceChunks(src.Len(), workers,
		func(lo, hi int) float64 {
			var p float64
			for i := lo; i < hi; i++ {
				p += tr.Apply(src.At(i)).Dist2(dst.At(i))
			}
			return p
		},
		func(a, b float64) float64 { return a + b })
	return math.Sqrt(s / float64(src.Len()))
}
