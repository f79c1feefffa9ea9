package registration

import (
	"math"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/linalg"
	"tigris/internal/par"
)

// This file holds the error-minimization reductions ICP runs over
// correspondence slabs (cloud.Slab): Umeyama point-to-point, point-to-plane
// LM, and RMSE. ICP gathers its correspondences directly into pooled
// slabs; every accumulation dequantizes to float64 and folds in
// accumChunk order, keeping results bit-identical at any Parallelism for
// the same (float32) inputs.
//
// The point-to-plane and RMSE passes are straight-line kernels: the
// transform's twelve entries sit in locals and each point is moved by
// the expression geom.Transform.Apply evaluates (R·p, row by row, then
// + T), so the bits are Apply's. Apply itself is not called there: its
// inline cost (93) is over the compiler's budget (80), so each point
// would pay a call and a copy of the 96-byte receiver. The normal
// equations are 27 scalar sums (JᵀJ's upper triangle and Jᵀr) in point
// order, and the kernels are bound once per pooled slabPasses, so a
// solve at one worker allocates nothing. reference_test.go holds both to
// the Apply-based forms they replaced, bit for bit. That evidence is
// from amd64 builds only: arm64 builds fuse multiply-adds, and may fuse
// these expressions differently from the old ones.

// estimateRigidTransformSlabPar solves the point-to-point alignment over
// paired correspondence slabs (see estimateRigidTransform), with the
// centroid and cross-covariance accumulation spread over up to `workers`
// goroutines; results are bit-identical at any worker count (see
// accumChunk).
func estimateRigidTransformSlabPar(src, dst *cloud.Slab, workers int) (geom.Transform, bool) {
	if src.Len() != dst.Len() || src.Len() < 3 {
		return geom.IdentityTransform(), false
	}
	n := float64(src.Len())
	cp := reduceChunks(src.Len(), workers, nil,
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

	h := reduceChunks(src.Len(), workers, nil,
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

// estimatePointToPlaneSlabPar solves the point-to-plane alignment over
// correspondence slabs: find the rigid T minimizing Σ((T(srcᵢ)−dstᵢ)·nᵢ)²,
// with nᵢ the target surface normal dst must carry. It runs
// Levenberg–Marquardt over a 6-DoF twist (rx, ry, rz, tx, ty, tz) with the
// analytic Jacobian of the linearized residual: for the residual
// r = (R·s + t − d)·n, ∂r/∂ξ = [ (R·s)×n ; n ] at the current estimate —
// the standard ICP linearization (Low 2004) the paper's LM solver [45]
// choice corresponds to. The normal-equation and cost accumulations are
// spread over up to `workers` goroutines; results are bit-identical at any
// worker count.
func estimatePointToPlaneSlabPar(src, dst *cloud.Slab, workers int) (geom.Transform, bool) {
	if src.Len() != dst.Len() || !dst.HasNormals() || src.Len() < 6 {
		return geom.IdentityTransform(), false
	}
	ps := getSlabPasses(src, dst)
	defer ps.release()
	cur := geom.IdentityTransform()
	lambda := 1e-4
	cost := ps.reduce(cur, workers, ps.costPass)
	// A handful of damped Gauss-Newton steps suffices: the outer ICP loop
	// re-linearizes anyway.
	for iter := 0; iter < 6; iter++ {
		ps.at = cur
		eq := reduceChunks(src.Len(), workers, &ps.eqParts, ps.eqPass, normalEqPart.add)
		var jtj [36]float64
		k := 0
		for a := 0; a < 6; a++ {
			for b := a; b < 6; b++ {
				jtj[a*6+b], jtj[b*6+a] = eq[k], eq[k]
				k++
			}
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
			var delta [6]float64
			for a := range delta {
				delta[a] = -eq[21+a]
			}
			if linalg.SolveDense(damped[:], delta[:]) != nil {
				lambda *= 10
				continue
			}
			trial := twistToTransform(delta[:]).Compose(cur)
			trialCost := ps.reduce(trial, workers, ps.costPass)
			if trialCost < cost {
				cur = trial
				cost = trialCost
				lambda = math.Max(lambda*0.3, 1e-12)
				improved = true
				if vecNorm6(delta[:]) < 1e-10 {
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

// alignmentRMSESlabPar returns the root-mean-square point-to-point error
// of the transform over the correspondence slabs; the ICP convergence
// criterion watches it. The squared-error accumulation is spread over up
// to `workers` goroutines; results are bit-identical at any worker count.
func alignmentRMSESlabPar(tr geom.Transform, src, dst *cloud.Slab, workers int) float64 {
	if src.Len() == 0 {
		return 0
	}
	ps := getSlabPasses(src, dst)
	s := ps.reduce(tr, workers, ps.sqErrPass)
	ps.release()
	return math.Sqrt(s / float64(src.Len()))
}

// slabPasses holds the per-point passes of one solve over a correspondence
// slab pair, with their kernels bound once: a pass hands reduceChunks a
// function value that already exists, so neither a pass nor a trial
// allocates. at is the transform the next pass evaluates; eqParts and
// sums keep a multi-worker pass's chunk partials from pass to pass.
type slabPasses struct {
	src, dst  *cloud.Slab
	at        geom.Transform
	eqPass    func(lo, hi int) normalEqPart
	costPass  func(lo, hi int) float64
	sqErrPass func(lo, hi int) float64
	eqParts   []normalEqPart
	sums      []float64
}

// idleSlabPasses holds the slabPasses no solve is using.
var idleSlabPasses par.FreeList[*slabPasses]

func getSlabPasses(src, dst *cloud.Slab) *slabPasses {
	ps, ok := idleSlabPasses.Get()
	if !ok {
		ps = new(slabPasses)
		ps.eqPass = ps.normalEqs
		ps.costPass = ps.planeCost
		ps.sqErrPass = ps.sqErr
	}
	ps.src, ps.dst = src, dst
	return ps
}

func (ps *slabPasses) release() {
	ps.src, ps.dst = nil, nil
	idleSlabPasses.Put(ps)
}

// reduce sums a scalar pass over the slabs at t.
func (ps *slabPasses) reduce(t geom.Transform, workers int, pass func(lo, hi int) float64) float64 {
	ps.at = t
	return reduceChunks(ps.src.Len(), workers, &ps.sums, pass, addFloat)
}

func addFloat(a, b float64) float64 { return a + b }

// normalEqs accumulates the point-to-plane normal equations of [lo, hi)
// at ps.at: per pair, s = R·src + T, the residual r = (s − dst)·n and
// the Jacobian row [s×n ; n].
func (ps *slabPasses) normalEqs(lo, hi int) normalEqPart {
	m, t := &ps.at.R, ps.at.T
	r0, r1, r2, r3, r4, r5, r6, r7, r8 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7], m[8]
	tx, ty, tz := t.X, t.Y, t.Z
	xs, ys, zs := ps.src.Xs[lo:hi], ps.src.Ys[lo:hi], ps.src.Zs[lo:hi]
	dxs, dys, dzs := ps.dst.Xs[lo:hi], ps.dst.Ys[lo:hi], ps.dst.Zs[lo:hi]
	nxs, nys, nzs := ps.dst.NXs[lo:hi], ps.dst.NYs[lo:hi], ps.dst.NZs[lo:hi]
	var (
		a00, a01, a02, a03, a04, a05 float64
		a11, a12, a13, a14, a15      float64
		a22, a23, a24, a25           float64
		a33, a34, a35                float64
		a44, a45                     float64
		a55                          float64
		b0, b1, b2, b3, b4, b5       float64
	)
	for i := range xs {
		x, y, z := float64(xs[i]), float64(ys[i]), float64(zs[i])
		sx := r0*x + r1*y + r2*z + tx
		sy := r3*x + r4*y + r5*z + ty
		sz := r6*x + r7*y + r8*z + tz
		nx, ny, nz := float64(nxs[i]), float64(nys[i]), float64(nzs[i])
		r := (sx-float64(dxs[i]))*nx + (sy-float64(dys[i]))*ny + (sz-float64(dzs[i]))*nz
		cx, cy, cz := sy*nz-sz*ny, sz*nx-sx*nz, sx*ny-sy*nx

		a00 += cx * cx
		a01 += cx * cy
		a02 += cx * cz
		a03 += cx * nx
		a04 += cx * ny
		a05 += cx * nz
		a11 += cy * cy
		a12 += cy * cz
		a13 += cy * nx
		a14 += cy * ny
		a15 += cy * nz
		a22 += cz * cz
		a23 += cz * nx
		a24 += cz * ny
		a25 += cz * nz
		a33 += nx * nx
		a34 += nx * ny
		a35 += nx * nz
		a44 += ny * ny
		a45 += ny * nz
		a55 += nz * nz
		b0 += cx * r
		b1 += cy * r
		b2 += cz * r
		b3 += nx * r
		b4 += ny * r
		b5 += nz * r
	}
	return normalEqPart{
		a00, a01, a02, a03, a04, a05,
		a11, a12, a13, a14, a15,
		a22, a23, a24, a25,
		a33, a34, a35,
		a44, a45,
		a55,
		b0, b1, b2, b3, b4, b5,
	}
}

// planeCost is Σ r² over [lo, hi) at ps.at, r the point-to-plane
// residual of normalEqs.
func (ps *slabPasses) planeCost(lo, hi int) float64 {
	m, t := &ps.at.R, ps.at.T
	r0, r1, r2, r3, r4, r5, r6, r7, r8 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7], m[8]
	tx, ty, tz := t.X, t.Y, t.Z
	xs, ys, zs := ps.src.Xs[lo:hi], ps.src.Ys[lo:hi], ps.src.Zs[lo:hi]
	dxs, dys, dzs := ps.dst.Xs[lo:hi], ps.dst.Ys[lo:hi], ps.dst.Zs[lo:hi]
	nxs, nys, nzs := ps.dst.NXs[lo:hi], ps.dst.NYs[lo:hi], ps.dst.NZs[lo:hi]
	var s float64
	for i := range xs {
		x, y, z := float64(xs[i]), float64(ys[i]), float64(zs[i])
		sx := r0*x + r1*y + r2*z + tx
		sy := r3*x + r4*y + r5*z + ty
		sz := r6*x + r7*y + r8*z + tz
		r := (sx-float64(dxs[i]))*float64(nxs[i]) + (sy-float64(dys[i]))*float64(nys[i]) + (sz-float64(dzs[i]))*float64(nzs[i])
		s += r * r
	}
	return s
}

// sqErr is Σ ‖ps.at(src) − dst‖² over [lo, hi).
func (ps *slabPasses) sqErr(lo, hi int) float64 {
	m, t := &ps.at.R, ps.at.T
	r0, r1, r2, r3, r4, r5, r6, r7, r8 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7], m[8]
	tx, ty, tz := t.X, t.Y, t.Z
	xs, ys, zs := ps.src.Xs[lo:hi], ps.src.Ys[lo:hi], ps.src.Zs[lo:hi]
	dxs, dys, dzs := ps.dst.Xs[lo:hi], ps.dst.Ys[lo:hi], ps.dst.Zs[lo:hi]
	var s float64
	for i := range xs {
		x, y, z := float64(xs[i]), float64(ys[i]), float64(zs[i])
		dx := r0*x + r1*y + r2*z + tx - float64(dxs[i])
		dy := r3*x + r4*y + r5*z + ty - float64(dys[i])
		dz := r6*x + r7*y + r8*z + tz - float64(dzs[i])
		s += dx*dx + dy*dy + dz*dz
	}
	return s
}
