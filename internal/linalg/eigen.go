// Package linalg implements the small-matrix numeric kernels the Tigris
// pipeline depends on: a cyclic-Jacobi symmetric eigensolver, a 3×3 singular
// value decomposition, and dense Gaussian elimination for the normal
// equations (the Levenberg–Marquardt loops in registration and posegraph
// solve their damped systems with it).
//
// Everything here is written for 3–6 dimensional problems; clarity and
// numerical robustness are favored over asymptotic tricks.
package linalg

import (
	"math"

	"tigris/internal/geom"
)

// SymEigen3 holds the eigendecomposition of a symmetric 3×3 matrix.
// Eigenvalues are sorted ascending; Vectors[i] is the unit eigenvector for
// Values[i]. Normal estimation uses the eigenvector of the smallest
// eigenvalue of the neighborhood covariance as the surface normal
// (PlaneSVD, paper Tbl. 1), and Harris3D uses the full spectrum.
type SymEigen3 struct {
	Values  [3]float64
	Vectors [3]geom.Vec3
}

// EigenSym3 computes the eigendecomposition of a symmetric 3×3 matrix using
// the cyclic Jacobi method. Only the lower/upper symmetric part is assumed
// consistent; the matrix is not modified.
func EigenSym3(m geom.Mat3) SymEigen3 {
	// a (a copy of m) is driven to diagonal form, v accumulates the
	// rotations. Both are held in scalars and the three rotations of a
	// sweep are written out, so the 27 element updates of a sweep are
	// register arithmetic: normal estimation and Harris call this once per
	// point.
	a00, a01, a02 := m[0], m[1], m[2]
	a10, a11, a12 := m[3], m[4], m[5]
	a20, a21, a22 := m[6], m[7], m[8]
	v00, v01, v02 := 1.0, 0.0, 0.0
	v10, v11, v12 := 0.0, 1.0, 0.0
	v20, v21, v22 := 0.0, 0.0, 1.0

	const maxSweeps = 50
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Sum of squares of off-diagonal elements.
		off := a01*a01 + a02*a02 + a12*a12
		if off < 1e-30 {
			break
		}
		// Each block applies the Givens rotation G(p,q,θ) to the columns
		// and then the rows p, q of a, and accumulates it into v.
		if c, s, ok := jacobiRotation(a00, a11, a01); ok { // p, q = 0, 1
			a00, a01 = rotate(c, s, a00, a01)
			a10, a11 = rotate(c, s, a10, a11)
			a20, a21 = rotate(c, s, a20, a21)
			a00, a10 = rotate(c, s, a00, a10)
			a01, a11 = rotate(c, s, a01, a11)
			a02, a12 = rotate(c, s, a02, a12)
			v00, v01 = rotate(c, s, v00, v01)
			v10, v11 = rotate(c, s, v10, v11)
			v20, v21 = rotate(c, s, v20, v21)
		}
		if c, s, ok := jacobiRotation(a00, a22, a02); ok { // p, q = 0, 2
			a00, a02 = rotate(c, s, a00, a02)
			a10, a12 = rotate(c, s, a10, a12)
			a20, a22 = rotate(c, s, a20, a22)
			a00, a20 = rotate(c, s, a00, a20)
			a01, a21 = rotate(c, s, a01, a21)
			a02, a22 = rotate(c, s, a02, a22)
			v00, v02 = rotate(c, s, v00, v02)
			v10, v12 = rotate(c, s, v10, v12)
			v20, v22 = rotate(c, s, v20, v22)
		}
		if c, s, ok := jacobiRotation(a11, a22, a12); ok { // p, q = 1, 2
			a01, a02 = rotate(c, s, a01, a02)
			a11, a12 = rotate(c, s, a11, a12)
			a21, a22 = rotate(c, s, a21, a22)
			a10, a20 = rotate(c, s, a10, a20)
			a11, a21 = rotate(c, s, a11, a21)
			a12, a22 = rotate(c, s, a12, a22)
			v01, v02 = rotate(c, s, v01, v02)
			v11, v12 = rotate(c, s, v11, v12)
			v21, v22 = rotate(c, s, v21, v22)
		}
	}

	res := SymEigen3{
		Values: [3]float64{a00, a11, a22},
		Vectors: [3]geom.Vec3{
			{X: v00, Y: v10, Z: v20},
			{X: v01, Y: v11, Z: v21},
			{X: v02, Y: v12, Z: v22},
		},
	}
	res.sort()
	return res
}

// jacobiRotation returns the cosine and sine of the Jacobi rotation that
// zeroes the off-diagonal element apq between diagonal elements app and
// aqq; ok is false when apq is already negligible.
func jacobiRotation(app, aqq, apq float64) (c, s float64, ok bool) {
	if math.Abs(apq) < 1e-300 {
		return 0, 0, false
	}
	theta := (aqq - app) / (2 * apq)
	// Stable tangent of the rotation angle.
	t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
	if theta < 0 {
		t = -t
	}
	c = 1 / math.Sqrt(t*t+1)
	return c, t * c, true
}

// rotate applies the plane rotation (c, s) to the pair (x, y).
func rotate(c, s, x, y float64) (float64, float64) {
	return c*x - s*y, s*x + c*y
}

// sort orders eigenpairs by ascending eigenvalue.
func (e *SymEigen3) sort() {
	for i := 0; i < 2; i++ {
		for j := i + 1; j < 3; j++ {
			if e.Values[j] < e.Values[i] {
				e.Values[i], e.Values[j] = e.Values[j], e.Values[i]
				e.Vectors[i], e.Vectors[j] = e.Vectors[j], e.Vectors[i]
			}
		}
	}
}

// SVD3 holds the singular value decomposition A = U·diag(S)·Vᵀ of a 3×3
// matrix. Singular values are sorted descending and non-negative; U and V
// are orthogonal. The Umeyama transform estimator (registration) consumes
// this decomposition.
type SVD3 struct {
	U geom.Mat3
	S [3]float64
	V geom.Mat3
}

// ComputeSVD3 computes the SVD of a 3×3 matrix via the eigendecomposition
// of AᵀA (for V and the singular values), recovering U = A·V·S⁻¹ with a
// null-space completion for rank-deficient inputs.
func ComputeSVD3(a geom.Mat3) SVD3 {
	ata := a.Transpose().Mul(a)
	eig := EigenSym3(ata)

	// Descending order of singular values.
	var s [3]float64
	var vcols [3]geom.Vec3
	for i := 0; i < 3; i++ {
		ev := eig.Values[2-i]
		if ev < 0 {
			ev = 0 // numerical noise on a PSD matrix
		}
		s[i] = math.Sqrt(ev)
		vcols[i] = eig.Vectors[2-i]
	}

	// Make V a proper orthonormal basis (EigenSym3 already gives orthonormal
	// vectors up to sign; enforce right-handedness for stability of the
	// cross-product completion below).
	if vcols[0].Cross(vcols[1]).Dot(vcols[2]) < 0 {
		vcols[2] = vcols[2].Neg()
	}

	var ucols [3]geom.Vec3
	// Eigenvalues of AᵀA carry O(ε·‖A‖²) numerical noise, so singular values
	// below √ε relative to the largest are indistinguishable from zero.
	// Treat them as exact zeros and complete U orthogonally instead of
	// dividing by noise.
	tiny := math.Max(1e-300, 1e-7*s[0])
	for i := 0; i < 3; i++ {
		if s[i] > tiny {
			ucols[i] = a.MulVec(vcols[i]).Scale(1 / s[i])
		} else {
			s[i] = 0
			// Complete U orthogonally. For i==0 the matrix is ~zero; pick an
			// arbitrary basis. Otherwise use the cross product of previous
			// columns (i is at most 2 when previous two exist).
			switch i {
			case 0:
				ucols[0] = geom.Vec3{X: 1}
			case 1:
				b1, _ := ucols[0].OrthoBasis()
				ucols[1] = b1
			default:
				ucols[2] = ucols[0].Cross(ucols[1]).Normalize()
			}
		}
	}
	// Re-orthonormalize U columns (Gram-Schmidt) to suppress drift when
	// singular values are close.
	ucols[0] = ucols[0].Normalize()
	ucols[1] = ucols[1].Sub(ucols[0].Scale(ucols[0].Dot(ucols[1]))).Normalize()
	if ucols[1].Norm() == 0 {
		ucols[1], _ = ucols[0].OrthoBasis()
	}
	ucols[2] = ucols[2].
		Sub(ucols[0].Scale(ucols[0].Dot(ucols[2]))).
		Sub(ucols[1].Scale(ucols[1].Dot(ucols[2]))).
		Normalize()
	if ucols[2].Norm() == 0 {
		ucols[2] = ucols[0].Cross(ucols[1])
	}

	return SVD3{
		U: matFromCols(ucols),
		S: s,
		V: matFromCols(vcols),
	}
}

// matFromCols assembles a matrix whose columns are the given vectors.
func matFromCols(c [3]geom.Vec3) geom.Mat3 {
	return geom.Mat3{
		c[0].X, c[1].X, c[2].X,
		c[0].Y, c[1].Y, c[2].Y,
		c[0].Z, c[1].Z, c[2].Z,
	}
}

// Reconstruct returns U·diag(S)·Vᵀ, useful for verifying the decomposition.
func (d SVD3) Reconstruct() geom.Mat3 {
	ds := geom.Mat3{
		d.S[0], 0, 0,
		0, d.S[1], 0,
		0, 0, d.S[2],
	}
	return d.U.Mul(ds).Mul(d.V.Transpose())
}
