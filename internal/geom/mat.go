package geom

import (
	"fmt"
	"math"
)

// Mat3 is a 3×3 matrix in row-major order. It represents rotations and the
// covariance matrices used by normal estimation and Harris key-point
// detection.
type Mat3 [9]float64

// Identity3 returns the 3×3 identity matrix.
func Identity3() Mat3 {
	return Mat3{
		1, 0, 0,
		0, 1, 0,
		0, 0, 1,
	}
}

// At returns the element at row r, column c.
func (m Mat3) At(r, c int) float64 { return m[3*r+c] }

// Set assigns the element at row r, column c.
func (m *Mat3) Set(r, c int, v float64) { m[3*r+c] = v }

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += m.At(r, k) * n.At(k, c)
			}
			out.Set(r, c, s)
		}
	}
	return out
}

// MulVec returns m·v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z,
		m[3]*v.X + m[4]*v.Y + m[5]*v.Z,
		m[6]*v.X + m[7]*v.Y + m[8]*v.Z,
	}
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	return Mat3{
		m[0], m[3], m[6],
		m[1], m[4], m[7],
		m[2], m[5], m[8],
	}
}

// Add returns m + n element-wise.
func (m Mat3) Add(n Mat3) Mat3 {
	var out Mat3
	for i := range m {
		out[i] = m[i] + n[i]
	}
	return out
}

// Scale returns s·m element-wise.
func (m Mat3) Scale(s float64) Mat3 {
	var out Mat3
	for i := range m {
		out[i] = s * m[i]
	}
	return out
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return m[0]*(m[4]*m[8]-m[5]*m[7]) -
		m[1]*(m[3]*m[8]-m[5]*m[6]) +
		m[2]*(m[3]*m[7]-m[4]*m[6])
}

// Trace returns the sum of the diagonal elements.
func (m Mat3) Trace() float64 { return m[0] + m[4] + m[8] }

// OuterProduct returns v·wᵀ, the building block of covariance accumulation.
func OuterProduct(v, w Vec3) Mat3 {
	return Mat3{
		v.X * w.X, v.X * w.Y, v.X * w.Z,
		v.Y * w.X, v.Y * w.Y, v.Y * w.Z,
		v.Z * w.X, v.Z * w.Y, v.Z * w.Z,
	}
}

// IsRotation reports whether m is a proper rotation matrix within tol:
// orthonormal (mᵀm = I) with determinant +1.
func (m Mat3) IsRotation(tol float64) bool {
	mtm := m.Transpose().Mul(m)
	id := Identity3()
	for i := range mtm {
		if math.Abs(mtm[i]-id[i]) > tol {
			return false
		}
	}
	return math.Abs(m.Det()-1) <= tol
}

// RotationAngle returns the rotation angle in radians encoded by a rotation
// matrix, via trace(R) = 1 + 2cosθ. Used by the KITTI rotational error
// metric (paper §6.1, degrees/meter).
func (m Mat3) RotationAngle() float64 {
	c := (m.Trace() - 1) / 2
	return math.Acos(clamp(c, -1, 1))
}

// RotX returns the rotation by angle a (radians) about the X axis.
func RotX(a float64) Mat3 {
	s, c := math.Sin(a), math.Cos(a)
	return Mat3{
		1, 0, 0,
		0, c, -s,
		0, s, c,
	}
}

// RotZ returns the rotation by angle a (radians) about the Z axis.
func RotZ(a float64) Mat3 {
	s, c := math.Sin(a), math.Cos(a)
	return Mat3{
		c, -s, 0,
		s, c, 0,
		0, 0, 1,
	}
}

// ExpRotation is the SO(3) exponential map: the rotation matrix of the
// rotation vector w (axis = w normalized, angle = |w|), via Rodrigues'
// formula. The zero vector maps to the identity. Together with
// LogRotation it is the parameterization the pose-graph optimizer
// perturbs rotations in.
func ExpRotation(w Vec3) Mat3 {
	a := w.Norm()
	if a < 1e-12 {
		// First-order expansion keeps Exp smooth through zero (and exact
		// enough for the optimizer's numeric-difference steps).
		return Mat3{
			1, -w.Z, w.Y,
			w.Z, 1, -w.X,
			-w.Y, w.X, 1,
		}
	}
	return AxisAngle(w.Scale(1/a), a)
}

// LogRotation is the SO(3) logarithm: the rotation vector of m (the
// inverse of ExpRotation). Angles at or near π are recovered through the
// matrix diagonal so the axis stays numerically stable where sin(angle)
// vanishes.
func LogRotation(m Mat3) Vec3 {
	angle := m.RotationAngle()
	skew := Vec3{
		X: (m.At(2, 1) - m.At(1, 2)) / 2,
		Y: (m.At(0, 2) - m.At(2, 0)) / 2,
		Z: (m.At(1, 0) - m.At(0, 1)) / 2,
	}
	if angle < 1e-12 {
		// Small angle: the skew part IS the rotation vector to first order.
		return skew
	}
	// The generic branch scales the skew part by angle/sin(angle), whose
	// relative error grows like ε/(π−angle)² (acos's conditioning near
	// −1 amplified through sin), so hand angles within 1e-4 of π to the
	// diagonal recovery below, which stays accurate all the way to π.
	if math.Pi-angle > 1e-4 {
		return skew.Scale(angle / math.Sin(angle))
	}
	// Near π the skew part degenerates; recover the axis from the
	// diagonal of R + I, whose entries give |u_i|.
	axis := Vec3{
		X: math.Sqrt(math.Max(0, (m.At(0, 0)+1)/2)),
		Y: math.Sqrt(math.Max(0, (m.At(1, 1)+1)/2)),
		Z: math.Sqrt(math.Max(0, (m.At(2, 2)+1)/2)),
	}
	// Fix relative signs from the off-diagonal sums, anchored on the
	// largest component.
	switch {
	case axis.X >= axis.Y && axis.X >= axis.Z:
		if m.At(0, 1)+m.At(1, 0) < 0 {
			axis.Y = -axis.Y
		}
		if m.At(0, 2)+m.At(2, 0) < 0 {
			axis.Z = -axis.Z
		}
	case axis.Y >= axis.Z:
		if m.At(0, 1)+m.At(1, 0) < 0 {
			axis.X = -axis.X
		}
		if m.At(1, 2)+m.At(2, 1) < 0 {
			axis.Z = -axis.Z
		}
	default:
		if m.At(0, 2)+m.At(2, 0) < 0 {
			axis.X = -axis.X
		}
		if m.At(1, 2)+m.At(2, 1) < 0 {
			axis.Y = -axis.Y
		}
	}
	// The diagonal fixes the axis only up to global sign. Short of
	// exactly π the skew part, however tiny, still points along the true
	// axis — align with it so the log map stays continuous across the
	// branch (at exactly π the sign is genuinely a free choice).
	if skew.Dot(axis) < 0 {
		axis = axis.Neg()
	}
	return axis.Normalize().Scale(angle)
}

// AxisAngle returns the rotation of angle a (radians) about unit axis u
// (Rodrigues' formula).
func AxisAngle(u Vec3, a float64) Mat3 {
	u = u.Normalize()
	s, c := math.Sin(a), math.Cos(a)
	omc := 1 - c
	return Mat3{
		c + u.X*u.X*omc, u.X*u.Y*omc - u.Z*s, u.X*u.Z*omc + u.Y*s,
		u.Y*u.X*omc + u.Z*s, c + u.Y*u.Y*omc, u.Y*u.Z*omc - u.X*s,
		u.Z*u.X*omc - u.Y*s, u.Z*u.Y*omc + u.X*s, c + u.Z*u.Z*omc,
	}
}

// String implements fmt.Stringer.
func (m Mat3) String() string {
	return fmt.Sprintf("[%.4g %.4g %.4g; %.4g %.4g %.4g; %.4g %.4g %.4g]",
		m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7], m[8])
}

// Mat4 is a 4×4 homogeneous matrix in row-major order. The registration
// pipeline's output (Eq. 1 in the paper) is a Mat4 combining rotation and
// translation.
type Mat4 [16]float64

// At returns the element at row r, column c.
func (m Mat4) At(r, c int) float64 { return m[4*r+c] }

// Set assigns the element at row r, column c.
func (m *Mat4) Set(r, c int, v float64) { m[4*r+c] = v }

// Mul returns the matrix product m·n.
func (m Mat4) Mul(n Mat4) Mat4 {
	var out Mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += m.At(r, k) * n.At(k, c)
			}
			out.Set(r, c, s)
		}
	}
	return out
}

// String implements fmt.Stringer.
func (m Mat4) String() string {
	return fmt.Sprintf("[%.4g %.4g %.4g %.4g; %.4g %.4g %.4g %.4g; %.4g %.4g %.4g %.4g; %.4g %.4g %.4g %.4g]",
		m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7],
		m[8], m[9], m[10], m[11], m[12], m[13], m[14], m[15])
}
