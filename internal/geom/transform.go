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
