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
		if !b.Contains(p) {
			t.Errorf("box should contain %v", p)
		}
	}
	if b.Contains(Vec3{100, 0, 0}) {
		t.Error("box should not contain far point")
	}
	if got, want := b.Min, (Vec3{-1, 0, 0}); !vecApprox(got, want, eps) {
		t.Errorf("Min = %v, want %v", got, want)
	}
	if got, want := b.Max, (Vec3{1, 5, 10}); !vecApprox(got, want, eps) {
		t.Errorf("Max = %v, want %v", got, want)
	}
}

func TestAabbDist2(t *testing.T) {
	b := Aabb{Min: Vec3{0, 0, 0}, Max: Vec3{1, 1, 1}}
	cases := []struct {
		p    Vec3
		want float64
	}{
		{Vec3{0.5, 0.5, 0.5}, 0},        // inside
		{Vec3{2, 0.5, 0.5}, 1},          // 1 unit past +X face
		{Vec3{-1, -1, 0.5}, 2},          // corner-ish distance
		{Vec3{2, 2, 2}, 3},              // corner distance sqrt(3)²
		{Vec3{0.5, 0.5, -0.25}, 0.0625}, // 0.25² below the -Z face
	}
	for _, c := range cases {
		if got := b.Dist2(c.p); !approx(got, c.want, eps) {
			t.Errorf("Dist2(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestAabbDist2IsLowerBound(t *testing.T) {
	// Property: for any point q and any point p inside the box,
	// Dist2(q, box) <= Dist2(q, p). This is exactly the soundness condition
	// KD-tree pruning relies on.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		b := EmptyAabb()
		for j := 0; j < 5; j++ {
			b.Extend(randVec(r))
		}
		q := randVec(r).Scale(3)
		inside := Vec3{
			b.Min.X + r.Float64()*(b.Max.X-b.Min.X),
			b.Min.Y + r.Float64()*(b.Max.Y-b.Min.Y),
			b.Min.Z + r.Float64()*(b.Max.Z-b.Min.Z),
		}
		if b.Dist2(q) > q.Dist2(inside)+eps {
			t.Fatalf("box dist %v exceeds dist to inside point %v", b.Dist2(q), q.Dist2(inside))
		}
	}
}

func TestAabbCenterSize(t *testing.T) {
	b := Aabb{Min: Vec3{-1, 0, 2}, Max: Vec3{3, 4, 6}}
	if !vecApprox(b.Center(), Vec3{1, 2, 4}, eps) {
		t.Errorf("Center = %v", b.Center())
	}
	if !vecApprox(b.Size(), Vec3{4, 4, 4}, eps) {
		t.Errorf("Size = %v", b.Size())
	}
}
