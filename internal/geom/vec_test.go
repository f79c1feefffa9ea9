package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecApprox(a, b Vec3, tol float64) bool {
	return approx(a.X, b.X, tol) && approx(a.Y, b.Y, tol) && approx(a.Z, b.Z, tol)
}

// randVec returns a bounded random vector suitable for quick checks where
// unbounded float64s would overflow intermediate products.
func randVec(r *rand.Rand) Vec3 {
	return Vec3{r.Float64()*20 - 10, r.Float64()*20 - 10, r.Float64()*20 - 10}
}

func TestVecAddSubRoundTrip(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{ax, ay, az}
		b := Vec3{bx, by, bz}
		if !a.IsFinite() || !b.IsFinite() {
			return true
		}
		got := a.Add(b).Sub(b)
		return vecApprox(got, a, 1e-6*(1+a.Norm()+b.Norm()))
	}
	cfg := &quick.Config{MaxCount: 200, Values: boundedVecPair}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// boundedVecPair generates six bounded float64s for the two-vector checks.
func boundedVecPair(vals []reflect.Value, r *rand.Rand) {
	for i := range vals {
		vals[i] = reflect.ValueOf(r.Float64()*200 - 100)
	}
}

func TestDotCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{ax, ay, az}
		b := Vec3{bx, by, bz}
		c := a.Cross(b)
		scale := 1 + a.Norm()*b.Norm()
		return approx(c.Dot(a), 0, 1e-6*scale) && approx(c.Dot(b), 0, 1e-6*scale)
	}
	cfg := &quick.Config{MaxCount: 200, Values: boundedVecPair}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCrossAnticommutative(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-4, 5, 0.5}
	if !vecApprox(a.Cross(b), b.Cross(a).Neg(), eps) {
		t.Errorf("a×b != -(b×a): %v vs %v", a.Cross(b), b.Cross(a).Neg())
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{ax, ay, az}
		b := Vec3{bx, by, bz}
		d := a.Dist(b)
		return approx(d*d, a.Dist2(b), 1e-6*(1+d*d))
	}
	cfg := &quick.Config{MaxCount: 200, Values: boundedVecPair}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	v := Vec3{3, 4, 0}
	n := v.Normalize()
	if !approx(n.Norm(), 1, eps) {
		t.Errorf("normalized norm = %v, want 1", n.Norm())
	}
	if !vecApprox(n, Vec3{0.6, 0.8, 0}, eps) {
		t.Errorf("normalize = %v", n)
	}
	zero := Vec3{}
	if got := zero.Normalize(); got != zero {
		t.Errorf("zero normalize = %v, want zero", got)
	}
}

func TestComponentAccessors(t *testing.T) {
	v := Vec3{1, 2, 3}
	for axis, want := range []float64{1, 2, 3} {
		if got := v.Component(axis); got != want {
			t.Errorf("Component(%d) = %v, want %v", axis, got, want)
		}
	}
}

func TestOrthoBasis(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		v := randVec(r)
		if v.Norm() < 1e-6 {
			continue
		}
		u, w := v.OrthoBasis()
		n := v.Normalize()
		if !approx(u.Norm(), 1, 1e-9) || !approx(w.Norm(), 1, 1e-9) {
			t.Fatalf("basis vectors not unit: |u|=%v |w|=%v", u.Norm(), w.Norm())
		}
		if !approx(u.Dot(n), 0, 1e-9) || !approx(w.Dot(n), 0, 1e-9) || !approx(u.Dot(w), 0, 1e-9) {
			t.Fatalf("basis not orthogonal for v=%v", v)
		}
		// Right-handedness: u × w should align with -n or n consistently.
		h := n.Cross(u)
		if !vecApprox(h, w, 1e-9) {
			t.Fatalf("basis not right-handed: n×u=%v, w=%v", h, w)
		}
	}
}

func TestAabbExtendContains(t *testing.T) {
	b := EmptyAabb()
	pts := []Vec3{{1, 2, 3}, {-1, 5, 0}, {0, 0, 10}}
	for _, p := range pts {
		b.Extend(p)
	}
	for _, p := range pts {
		if p.X < b.Min.X || p.Y < b.Min.Y || p.Z < b.Min.Z ||
			p.X > b.Max.X || p.Y > b.Max.Y || p.Z > b.Max.Z {
			t.Errorf("box should contain %v", p)
		}
	}
	if got, want := b.Min, (Vec3{-1, 0, 0}); !vecApprox(got, want, eps) {
		t.Errorf("Min = %v, want %v", got, want)
	}
	if got, want := b.Max, (Vec3{1, 5, 10}); !vecApprox(got, want, eps) {
		t.Errorf("Max = %v, want %v", got, want)
	}
}

func TestAabbCenterSize(t *testing.T) {
	b := EmptyAabb()
	b.Extend(Vec3{3, 0, 6})
	b.Extend(Vec3{-1, 4, 2})
	if b.Min != (Vec3{-1, 0, 2}) || b.Max != (Vec3{3, 4, 6}) {
		t.Errorf("Min, Max = %v, %v", b.Min, b.Max)
	}
	if !vecApprox(b.Size(), Vec3{4, 4, 4}, eps) {
		t.Errorf("Size = %v", b.Size())
	}
}
