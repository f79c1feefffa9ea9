package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randRotation(r *rand.Rand) Mat3 {
	axis := randVec(r)
	if axis.Norm() < 1e-9 {
		axis = Vec3{0, 0, 1}
	}
	return AxisAngle(axis, r.Float64()*2*math.Pi)
}

func mat3Approx(a, b Mat3, tol float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestMat3Identity(t *testing.T) {
	id := Identity3()
	m := Mat3{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !mat3Approx(id.Mul(m), m, eps) || !mat3Approx(m.Mul(id), m, eps) {
		t.Error("identity multiplication changed matrix")
	}
}

func TestMat3MulAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		var a, b, c Mat3
		for j := range a {
			a[j] = r.Float64()*2 - 1
			b[j] = r.Float64()*2 - 1
			c[j] = r.Float64()*2 - 1
		}
		if !mat3Approx(a.Mul(b).Mul(c), a.Mul(b.Mul(c)), 1e-9) {
			t.Fatal("matrix multiplication not associative")
		}
	}
}

func TestMat3MulVecDistributes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		m := randRotation(r)
		n := randRotation(r)
		v := randVec(r)
		lhs := m.Mul(n).MulVec(v)
		rhs := m.MulVec(n.MulVec(v))
		if !vecApprox(lhs, rhs, 1e-9) {
			t.Fatalf("(MN)v != M(Nv): %v vs %v", lhs, rhs)
		}
	}
}

func TestMat3TransposeInvolution(t *testing.T) {
	m := Mat3{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if m.Transpose().Transpose() != m {
		t.Error("double transpose changed matrix")
	}
	if m.Transpose().At(0, 1) != m.At(1, 0) {
		t.Error("transpose element mismatch")
	}
}

func TestRotationProperties(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		rot := randRotation(r)
		if !rot.IsRotation(1e-9) {
			t.Fatalf("AxisAngle produced non-rotation: det=%v", rot.Det())
		}
		// Rotations preserve lengths and dot products.
		a := randVec(r)
		b := randVec(r)
		if !approx(rot.MulVec(a).Norm(), a.Norm(), 1e-9*(1+a.Norm())) {
			t.Fatal("rotation changed vector length")
		}
		if !approx(rot.MulVec(a).Dot(rot.MulVec(b)), a.Dot(b), 1e-7*(1+a.Norm()*b.Norm())) {
			t.Fatal("rotation changed dot product")
		}
	}
}

func TestRotationAngleRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		angle := r.Float64() * math.Pi // RotationAngle returns [0, π]
		axis := randVec(r)
		if axis.Norm() < 1e-9 {
			continue
		}
		rot := AxisAngle(axis, angle)
		if got := rot.RotationAngle(); !approx(got, angle, 1e-6) {
			t.Fatalf("RotationAngle = %v, want %v", got, angle)
		}
	}
}

func TestAxisRotations(t *testing.T) {
	// RotZ(90°) maps +X to +Y.
	got := RotZ(math.Pi / 2).MulVec(Vec3{1, 0, 0})
	if !vecApprox(got, Vec3{0, 1, 0}, 1e-12) {
		t.Errorf("RotZ(π/2)·x = %v, want +Y", got)
	}
	// RotX(90°) maps +Y to +Z.
	got = RotX(math.Pi / 2).MulVec(Vec3{0, 1, 0})
	if !vecApprox(got, Vec3{0, 0, 1}, 1e-12) {
		t.Errorf("RotX(π/2)·y = %v, want +Z", got)
	}
}

func TestDetOfRotationIsOne(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if d := randRotation(r).Det(); !approx(d, 1, 1e-9) {
			t.Fatalf("rotation det = %v", d)
		}
	}
}

func TestOuterProduct(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	op := OuterProduct(v, w)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			want := v.Component(r) * w.Component(c)
			if got := op.At(r, c); !approx(got, want, eps) {
				t.Errorf("outer(%d,%d) = %v, want %v", r, c, got, want)
			}
		}
	}
	if !approx(op.Trace(), v.Dot(w), eps) {
		t.Error("trace of outer product should equal dot product")
	}
}

func TestMat4MatchesTransformCompose(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		t1 := Transform{R: randRotation(r), T: randVec(r)}
		t2 := Transform{R: randRotation(r), T: randVec(r)}
		viaTransforms := t1.Compose(t2).Mat4()
		viaMatrices := mat4Mul(t1.Mat4(), t2.Mat4())
		for j := range viaTransforms {
			if !approx(viaTransforms[j], viaMatrices[j], 1e-9) {
				t.Fatalf("Mat4 compose mismatch at %d: %v vs %v", j, viaTransforms[j], viaMatrices[j])
			}
		}
	}
}

// mat4Mul is the homogeneous matrix product m·n, the oracle for Compose.
func mat4Mul(m, n Mat4) Mat4 {
	var out Mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			for k := 0; k < 4; k++ {
				out[4*r+c] += m.At(r, k) * n.At(k, c)
			}
		}
	}
	return out
}

func TestExpLogRotationRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Random rotations, including angles all the way up to (near) π where
	// the log map switches to its diagonal branch.
	for i := 0; i < 200; i++ {
		m := randRotation(r)
		w := LogRotation(m)
		back := ExpRotation(w)
		for j := range m {
			if !approx(m[j], back[j], 1e-8) {
				t.Fatalf("roundtrip mismatch at %d: angle %.4f\n m=%v\n b=%v", j, w.Norm(), m, back)
			}
		}
	}
	// Targeted angles: zero, tiny, and within a hair of π about every axis.
	axes := []Vec3{{X: 1}, {Y: 1}, {Z: 1}, Vec3{X: 1, Y: -2, Z: 0.5}.Normalize()}
	for _, u := range axes {
		for _, a := range []float64{0, 1e-9, 1e-4, 1.0, 3.0, math.Pi - 1e-9, math.Pi} {
			m := AxisAngle(u, a)
			back := ExpRotation(LogRotation(m))
			for j := range m {
				if !approx(m[j], back[j], 1e-6) {
					t.Fatalf("axis %v angle %v: roundtrip mismatch at %d", u, a, j)
				}
			}
		}
	}
	if ExpRotation(Vec3{}) != Identity3() {
		t.Fatal("Exp(0) != I")
	}
}

// TestLogRotationNearPiSign pins the global-sign recovery of the log
// map's near-π branch: short of exactly π the tiny skew part still
// carries the axis sign, so the roundtrip must be exact (not just
// within the loose branch tolerance) and continuous across the branch
// switch.
func TestLogRotationNearPiSign(t *testing.T) {
	axes := []Vec3{
		Vec3{X: -1, Y: 0.2, Z: 0.1}.Normalize(),
		Vec3{X: 0.3, Y: -1, Z: -0.4}.Normalize(),
		Vec3{X: -0.2, Y: -0.3, Z: 1}.Normalize(),
	}
	for _, u := range axes {
		for _, a := range []float64{math.Pi - 5e-7, math.Pi - 2e-6, math.Pi - 1e-5, math.Pi - 9e-5, math.Pi - 2e-4, math.Pi - 1e-8} {
			m := AxisAngle(u, a)
			w := LogRotation(m)
			if w.Dot(u) < 0 {
				t.Fatalf("axis %v angle %v: log axis flipped: %v", u, a, w)
			}
			back := ExpRotation(w)
			// Both branches keep the roundtrip far below the ~1e-5 error
			// the sin branch used to produce this close to π; the
			// diagonal branch's own floor is ~(π−angle)²/4.
			for j := range m {
				if !approx(m[j], back[j], 1e-7) {
					t.Fatalf("axis %v angle %v: roundtrip error %g at %d", u, a, m[j]-back[j], j)
				}
			}
		}
	}
}
