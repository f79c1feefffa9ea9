package geom

import (
	"fmt"
	"math"
)

// Transform is a rigid-body transform: the rotation R and translation T of
// the paper's Eq. 1. Applying it to a point X yields X' = R·X + T, which is
// the action of the homogeneous matrix [R T; 0 1].
type Transform struct {
	R Mat3
	T Vec3
}

// IdentityTransform returns the identity rigid transform.
func IdentityTransform() Transform {
	return Transform{R: Identity3()}
}

// Apply transforms a point: R·p + T.
func (t Transform) Apply(p Vec3) Vec3 {
	return t.R.MulVec(p).Add(t.T)
}

// ApplyDirection rotates a direction vector without translating it, as is
// appropriate for surface normals.
func (t Transform) ApplyDirection(d Vec3) Vec3 {
	return t.R.MulVec(d)
}

// Compose returns the transform equivalent to applying u first and then t:
// (t∘u)(p) = t(u(p)).
func (t Transform) Compose(u Transform) Transform {
	return Transform{
		R: t.R.Mul(u.R),
		T: t.R.MulVec(u.T).Add(t.T),
	}
}

// Inverse returns the transform that undoes t. For rigid transforms
// R⁻¹ = Rᵀ, so the inverse is (Rᵀ, -Rᵀ·T).
func (t Transform) Inverse() Transform {
	rt := t.R.Transpose()
	return Transform{R: rt, T: rt.MulVec(t.T).Neg()}
}

// Mat4 returns the homogeneous 4×4 matrix form [R T; 0 1] (paper Eq. 1).
func (t Transform) Mat4() Mat4 {
	return Mat4{
		t.R[0], t.R[1], t.R[2], t.T.X,
		t.R[3], t.R[4], t.R[5], t.T.Y,
		t.R[6], t.R[7], t.R[8], t.T.Z,
		0, 0, 0, 1,
	}
}

// TransformFromMat4 extracts the rigid transform from a homogeneous matrix.
// The bottom row is assumed to be [0 0 0 1]; no re-orthonormalization is
// performed.
func TransformFromMat4(m Mat4) Transform {
	return Transform{
		R: Mat3{m[0], m[1], m[2], m[4], m[5], m[6], m[8], m[9], m[10]},
		T: Vec3{m[3], m[7], m[11]},
	}
}

// RotationAngle returns the magnitude of the rotation in radians.
func (t Transform) RotationAngle() float64 { return t.R.RotationAngle() }

// TranslationNorm returns the length of the translation component.
func (t Transform) TranslationNorm() float64 { return t.T.Norm() }

// NearlyEqual reports whether two transforms agree within tol on every
// rotation entry and translation component.
func (t Transform) NearlyEqual(u Transform, tol float64) bool {
	for i := range t.R {
		if math.Abs(t.R[i]-u.R[i]) > tol {
			return false
		}
	}
	return math.Abs(t.T.X-u.T.X) <= tol &&
		math.Abs(t.T.Y-u.T.Y) <= tol &&
		math.Abs(t.T.Z-u.T.Z) <= tol
}

// String implements fmt.Stringer.
func (t Transform) String() string {
	return fmt.Sprintf("Transform{R: %v, T: %v}", t.R, t.T)
}

// Quat is a unit quaternion (w + xi + yj + zk) used for smooth trajectory
// interpolation in the synthetic LiDAR simulator and as a compact rotation
// parameterization.
type Quat struct {
	W, X, Y, Z float64
}

// IdentityQuat returns the identity rotation quaternion.
func IdentityQuat() Quat { return Quat{W: 1} }

// QuatFromAxisAngle returns the quaternion rotating by angle a (radians)
// about unit axis u.
func QuatFromAxisAngle(u Vec3, a float64) Quat {
	u = u.Normalize()
	s := math.Sin(a / 2)
	return Quat{W: math.Cos(a / 2), X: u.X * s, Y: u.Y * s, Z: u.Z * s}
}

// Mat3 converts the quaternion to a rotation matrix.
func (q Quat) Mat3() Mat3 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat3{
		1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y),
		2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x),
		2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y),
	}
}

// Mul returns the Hamilton product q·r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conjugate returns the quaternion conjugate, the inverse for unit
// quaternions.
func (q Quat) Conjugate() Quat { return Quat{q.W, -q.X, -q.Y, -q.Z} }

// Norm returns the quaternion magnitude.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalize returns the unit quaternion with the same direction. The zero
// quaternion normalizes to the identity.
func (q Quat) Normalize() Quat {
	n := q.Norm()
	if n == 0 {
		return IdentityQuat()
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Slerp spherically interpolates from q to r by fraction t ∈ [0,1].
func (q Quat) Slerp(r Quat, t float64) Quat {
	q = q.Normalize()
	r = r.Normalize()
	dot := q.W*r.W + q.X*r.X + q.Y*r.Y + q.Z*r.Z
	// Take the short arc.
	if dot < 0 {
		r = Quat{-r.W, -r.X, -r.Y, -r.Z}
		dot = -dot
	}
	if dot > 0.9995 {
		// Nearly parallel: fall back to normalized linear interpolation.
		return Quat{
			W: q.W + t*(r.W-q.W),
			X: q.X + t*(r.X-q.X),
			Y: q.Y + t*(r.Y-q.Y),
			Z: q.Z + t*(r.Z-q.Z),
		}.Normalize()
	}
	theta := math.Acos(clamp(dot, -1, 1))
	sinTheta := math.Sin(theta)
	a := math.Sin((1-t)*theta) / sinTheta
	b := math.Sin(t*theta) / sinTheta
	return Quat{
		W: a*q.W + b*r.W,
		X: a*q.X + b*r.X,
		Y: a*q.Y + b*r.Y,
		Z: a*q.Z + b*r.Z,
	}.Normalize()
}

// Rotate applies the quaternion rotation to a vector.
func (q Quat) Rotate(v Vec3) Vec3 {
	p := Quat{0, v.X, v.Y, v.Z}
	out := q.Mul(p).Mul(q.Conjugate())
	return Vec3{out.X, out.Y, out.Z}
}
