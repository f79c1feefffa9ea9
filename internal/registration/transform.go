package registration

import (
	"math"

	"tigris/internal/geom"
	"tigris/internal/linalg"
	"tigris/internal/par"
)

// accumChunk is the fixed block size of every parallel error/statistics
// reduction in this file. Chunk boundaries depend only on the pair count
// — never on the worker count — and chunk partials are folded in chunk
// order, so the floating-point summation order (and therefore every bit
// of the result) is invariant under the Parallelism knob: one worker
// walking the chunks sequentially produces exactly what sixteen workers
// produce. Inputs at or below one chunk take the plain sequential loop,
// preserving the historical summation order for small solves (RANSAC's
// 3-point hypotheses, test-scale clouds).
const accumChunk = 4096

// reduceChunks evaluates eval over the fixed-size chunks of [0, n) on up
// to `workers` goroutines and folds the chunk partials in chunk order.
// See accumChunk for why this is deterministic at any worker count. One
// worker, or one chunk, folds as it goes on the caller: no partials
// slice and no closure for the pool, so such a pass allocates nothing
// beyond what eval does.
func reduceChunks[P any](n, workers int, eval func(lo, hi int) P, fold func(acc, p P) P) P {
	workers = par.Workers(workers)
	if workers == 1 || n <= accumChunk {
		acc := eval(0, min(n, accumChunk))
		for lo := accumChunk; lo < n; lo += accumChunk {
			acc = fold(acc, eval(lo, min(lo+accumChunk, n)))
		}
		return acc
	}
	chunks := (n + accumChunk - 1) / accumChunk
	parts := make([]P, chunks)
	par.ForChunks(n, workers, accumChunk, func(_, lo, hi int) {
		parts[lo/accumChunk] = eval(lo, hi)
	})
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = fold(acc, p)
	}
	return acc
}

// EstimateRigidTransform solves the point-to-point least-squares alignment
// problem: find the rigid T minimizing Σ‖T(srcᵢ) − dstᵢ‖² for paired
// points, via the SVD method of Umeyama/Arun (the paper's "SVD [25]"
// solver choice in Tbl. 1). Returns ok=false when fewer than 3 pairs are
// given or the configuration is degenerate.
func EstimateRigidTransform(src, dst []geom.Vec3) (geom.Transform, bool) {
	return EstimateRigidTransformPar(src, dst, 1)
}

// centroidPart is one chunk's running point sums.
type centroidPart struct{ cs, cd geom.Vec3 }

// EstimateRigidTransformPar is EstimateRigidTransform with the per-point
// accumulation (centroids and cross-covariance) spread over up to
// `workers` goroutines (<= 0 selects par.Slots). Results are bit-identical
// at any worker count (see accumChunk). Inputs at or below one chunk
// dispatch to a closure-free sequential kernel, which keeps the RANSAC
// hypothesis loop (3-point solves, thousands per pair) allocation-free:
// the chunked reducers' closures would otherwise force every sample
// array to the heap.
func EstimateRigidTransformPar(src, dst []geom.Vec3, workers int) (geom.Transform, bool) {
	if len(src) != len(dst) || len(src) < 3 {
		return geom.IdentityTransform(), false
	}
	if len(src) <= accumChunk {
		return estimateRigidSeq(src, dst)
	}
	return estimateRigidChunked(src, dst, workers)
}

// estimateRigidSeq is the sequential accumulation kernel — byte for byte
// the single-chunk specialization of estimateRigidChunked.
func estimateRigidSeq(src, dst []geom.Vec3) (geom.Transform, bool) {
	n := float64(len(src))
	var cp centroidPart
	for i := range src {
		cp.cs = cp.cs.Add(src[i])
		cp.cd = cp.cd.Add(dst[i])
	}
	cs := cp.cs.Scale(1 / n)
	cd := cp.cd.Scale(1 / n)
	var h geom.Mat3
	for i := range src {
		h = h.Add(geom.OuterProduct(src[i].Sub(cs), dst[i].Sub(cd)))
	}
	return rigidFromStats(h, cs, cd)
}

func estimateRigidChunked(src, dst []geom.Vec3, workers int) (geom.Transform, bool) {
	n := float64(len(src))
	cp := reduceChunks(len(src), workers,
		func(lo, hi int) centroidPart {
			var p centroidPart
			for i := lo; i < hi; i++ {
				p.cs = p.cs.Add(src[i])
				p.cd = p.cd.Add(dst[i])
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

	// Cross-covariance H = Σ (srcᵢ−c̄s)(dstᵢ−c̄d)ᵀ.
	h := reduceChunks(len(src), workers,
		func(lo, hi int) geom.Mat3 {
			var hp geom.Mat3
			for i := lo; i < hi; i++ {
				hp = hp.Add(geom.OuterProduct(src[i].Sub(cs), dst[i].Sub(cd)))
			}
			return hp
		},
		geom.Mat3.Add)
	return rigidFromStats(h, cs, cd)
}

// rigidFromStats finishes the Umeyama solve from the accumulated
// cross-covariance and centroids.
func rigidFromStats(h geom.Mat3, cs, cd geom.Vec3) (geom.Transform, bool) {
	svd := linalg.ComputeSVD3(h)
	// R = V·D·Uᵀ with D correcting for reflections.
	d := geom.Identity3()
	if svd.V.Mul(svd.U.Transpose()).Det() < 0 {
		d.Set(2, 2, -1)
	}
	r := svd.V.Mul(d).Mul(svd.U.Transpose())
	if !r.IsRotation(1e-6) {
		return geom.IdentityTransform(), false
	}
	t := cd.Sub(r.MulVec(cs))
	return geom.Transform{R: r, T: t}, true
}

// ErrorMetric selects the ICP error formulation (Tbl. 1, Transformation
// Estimation row).
type ErrorMetric int

const (
	// PointToPoint minimizes Σ‖T(s)−t‖² (Besl & McKay [9], solved in
	// closed form by SVD).
	PointToPoint ErrorMetric = iota
	// PointToPlane minimizes Σ((T(s)−t)·n_t)² (Chen & Medioni [12],
	// solved iteratively, here by Levenberg–Marquardt [45]).
	PointToPlane
)

// String implements fmt.Stringer.
func (m ErrorMetric) String() string {
	switch m {
	case PointToPoint:
		return "PointToPoint"
	case PointToPlane:
		return "PointToPlane"
	default:
		return "UnknownErrorMetric"
	}
}

// normalEqPart is one chunk's share of the 6×6 normal equations: JᵀJ's
// 21 upper-triangle sums row by row, then Jᵀr's 6.
type normalEqPart [27]float64

func (p normalEqPart) add(o normalEqPart) normalEqPart {
	for i := range p {
		p[i] += o[i]
	}
	return p
}

// moveAll replaces every point p with t.Apply(p): the same expression,
// so the same bits, with t's entries in locals rather than a call and a
// receiver copy per point (see transform_slab.go). When moved is not nil,
// moved[i] gains point i's displacement |p' − p|, computed from the
// float64 positions — ICP's queries keep that budget for their NN
// certificates (search.BatchNearestTracked).
func moveAll(t geom.Transform, pts []geom.Vec3, moved []float64) {
	m := &t.R
	r0, r1, r2, r3, r4, r5, r6, r7, r8 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7], m[8]
	tx, ty, tz := t.T.X, t.T.Y, t.T.Z
	for i, p := range pts {
		x := r0*p.X + r1*p.Y + r2*p.Z + tx
		y := r3*p.X + r4*p.Y + r5*p.Z + ty
		z := r6*p.X + r7*p.Y + r8*p.Z + tz
		if moved != nil {
			dx, dy, dz := x-p.X, y-p.Y, z-p.Z
			moved[i] += math.Sqrt(dx*dx + dy*dy + dz*dz)
		}
		pts[i] = geom.Vec3{X: x, Y: y, Z: z}
	}
}

func vecNorm6(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// twistToTransform converts a 6-vector (rx, ry, rz, tx, ty, tz) into a
// rigid transform using the exponential map (Rodrigues).
func twistToTransform(p []float64) geom.Transform {
	w := geom.Vec3{X: p[0], Y: p[1], Z: p[2]}
	angle := w.Norm()
	var r geom.Mat3
	if angle < 1e-12 {
		r = geom.Identity3()
	} else {
		r = geom.AxisAngle(w.Scale(1/angle), angle)
	}
	return geom.Transform{R: r, T: geom.Vec3{X: p[3], Y: p[4], Z: p[5]}}
}
