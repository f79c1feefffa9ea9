package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randTransform(r *rand.Rand) Transform {
	return Transform{R: randRotation(r), T: randVec(r)}
}

func TestTransformInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		tr := randTransform(r)
		inv := tr.Inverse()
		p := randVec(r)
		if got := inv.Apply(tr.Apply(p)); !vecApprox(got, p, 1e-8) {
			t.Fatalf("inverse round trip: %v -> %v", p, got)
		}
		if !tr.Compose(inv).NearlyEqual(IdentityTransform(), 1e-9) {
			t.Fatal("t∘t⁻¹ != identity")
		}
		if !inv.Compose(tr).NearlyEqual(IdentityTransform(), 1e-9) {
			t.Fatal("t⁻¹∘t != identity")
		}
	}
}

func TestTransformComposeOrder(t *testing.T) {
	// Compose(u) applies u first: (t∘u)(p) = t(u(p)).
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		t1 := randTransform(r)
		t2 := randTransform(r)
		p := randVec(r)
		lhs := t1.Compose(t2).Apply(p)
		rhs := t1.Apply(t2.Apply(p))
		if !vecApprox(lhs, rhs, 1e-8) {
			t.Fatalf("compose order mismatch: %v vs %v", lhs, rhs)
		}
	}
}

func TestTransformMat4RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		tr := randTransform(r)
		m := tr.Mat4()
		for row := 0; row < 3; row++ {
			for col := 0; col < 3; col++ {
				if m.At(row, col) != tr.R.At(row, col) {
					t.Fatalf("Mat4 (%d,%d) = %v, want R's %v", row, col, m.At(row, col), tr.R.At(row, col))
				}
			}
			if m.At(row, 3) != tr.T.Component(row) {
				t.Fatalf("Mat4 (%d,3) = %v, want T's %v", row, m.At(row, 3), tr.T.Component(row))
			}
		}
		if m.At(3, 0) != 0 || m.At(3, 1) != 0 || m.At(3, 2) != 0 || m.At(3, 3) != 1 {
			t.Fatalf("Mat4 bottom row = %v, want [0 0 0 1]", m[12:])
		}
	}
}

func TestApplyDirectionIgnoresTranslation(t *testing.T) {
	tr := Transform{R: RotZ(math.Pi / 4), T: Vec3{100, 200, 300}}
	d := Vec3{1, 0, 0}
	got := tr.ApplyDirection(d)
	want := RotZ(math.Pi / 4).MulVec(d)
	if !vecApprox(got, want, eps) {
		t.Errorf("ApplyDirection = %v, want %v", got, want)
	}
}

func TestRigidTransformPreservesDistances(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		tr := randTransform(r)
		a := randVec(r)
		b := randVec(r)
		if !approx(tr.Apply(a).Dist(tr.Apply(b)), a.Dist(b), 1e-8) {
			t.Fatal("rigid transform changed a pairwise distance")
		}
	}
}

func TestTransformRotationAngleAndNorm(t *testing.T) {
	tr := Transform{R: RotX(0.3), T: Vec3{3, 4, 0}}
	if !approx(tr.RotationAngle(), 0.3, 1e-9) {
		t.Errorf("RotationAngle = %v", tr.RotationAngle())
	}
	if !approx(tr.TranslationNorm(), 5, 1e-9) {
		t.Errorf("TranslationNorm = %v", tr.TranslationNorm())
	}
}
