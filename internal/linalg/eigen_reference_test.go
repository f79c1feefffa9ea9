package linalg

import (
	"math"
	"math/rand"
	"testing"

	"tigris/internal/geom"
)

// eigenSym3Reference is EigenSym3 as it was written before its rotations
// were spelled out over scalars: the same cyclic Jacobi sweeps through
// At/Set on the matrices. It is the oracle the scalar form is held to,
// bit for bit.
func eigenSym3Reference(m geom.Mat3) SymEigen3 {
	a := m
	v := geom.Identity3()
	const maxSweeps = 50
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := a.At(0, 1)*a.At(0, 1) + a.At(0, 2)*a.At(0, 2) + a.At(1, 2)*a.At(1, 2)
		if off < 1e-30 {
			break
		}
		for p := 0; p < 2; p++ {
			for q := p + 1; q < 3; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := a.At(p, p)
				aqq := a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < 3; k++ {
					akp := a.At(k, p)
					akq := a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < 3; k++ {
					apk := a.At(p, k)
					aqk := a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < 3; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	res := SymEigen3{
		Values: [3]float64{a.At(0, 0), a.At(1, 1), a.At(2, 2)},
		Vectors: [3]geom.Vec3{
			{X: v.At(0, 0), Y: v.At(1, 0), Z: v.At(2, 0)},
			{X: v.At(0, 1), Y: v.At(1, 1), Z: v.At(2, 1)},
			{X: v.At(0, 2), Y: v.At(1, 2), Z: v.At(2, 2)},
		},
	}
	res.sort()
	return res
}

// neighbourhoodCovariance is the covariance of n points scattered about a
// random plane patch with the given thickness — what normal estimation
// and Harris hand EigenSym3.
func neighbourhoodCovariance(r *rand.Rand, n int, thickness float64) geom.Mat3 {
	u := geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()).Normalize()
	w := u.Cross(geom.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())).Normalize()
	nrm := u.Cross(w)
	pts := make([]geom.Vec3, n)
	var mean geom.Vec3
	for i := range pts {
		pts[i] = u.Scale(r.Float64() - 0.5).Add(w.Scale(r.Float64() - 0.5)).Add(nrm.Scale(thickness * r.NormFloat64()))
		mean = mean.Add(pts[i])
	}
	mean = mean.Scale(1 / float64(n))
	var cov geom.Mat3
	for _, p := range pts {
		d := p.Sub(mean)
		cov = cov.Add(geom.OuterProduct(d, d))
	}
	return cov.Scale(1 / float64(n))
}

// TestEigenSym3MatchesReferenceBitForBit: the scalar rotations perform the
// reference's operations in the reference's order, so values and vectors
// are equal to the last bit — on neighbourhood covariances (thick, thin
// and exactly planar), on arbitrary symmetric and non-symmetric input, on
// extreme scales, and on the matrices that skip rotations or sweeps.
func TestEigenSym3MatchesReferenceBitForBit(t *testing.T) {
	check := func(name string, m geom.Mat3) {
		t.Helper()
		got, want := EigenSym3(m), eigenSym3Reference(m)
		for k := 0; k < 3; k++ {
			if math.Float64bits(got.Values[k]) != math.Float64bits(want.Values[k]) ||
				math.Float64bits(got.Vectors[k].X) != math.Float64bits(want.Vectors[k].X) ||
				math.Float64bits(got.Vectors[k].Y) != math.Float64bits(want.Vectors[k].Y) ||
				math.Float64bits(got.Vectors[k].Z) != math.Float64bits(want.Vectors[k].Z) {
				t.Fatalf("%s: %v\n got %+v\nwant %+v", name, m, got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(27))
	n := 100000
	if testing.Short() {
		n = 10000
	}
	for i := 0; i < n; i++ {
		check("neighbourhood", neighbourhoodCovariance(r, 3+r.Intn(30), []float64{0.2, 0.01, 0}[i%3]))
		check("symmetric", randSym(r))
		check("unsymmetric", randMat(r))
		check("scaled", randSym(r).Scale(math.Pow(10, float64(r.Intn(600)-300))))
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, m := range []geom.Mat3{
		{},
		geom.Identity3(),
		{3, 0, 0, 0, 1, 0, 0, 0, 2},
		{1, 1, 1, 1, 1, 1, 1, 1, 1},
		{2, 1e-160, 0, 1e-160, 2, 0, 0, 0, 2},
		{1, 1e-301, 0, 1e-301, 1, 5, 0, 5, 1},
		{1, 0, 2, 0, 1, 0, 2, 0, 1},
		{1, inf, 0, inf, 1, 0, 0, 0, 1},
		{1, 2, 3, 2, nan, 4, 3, 4, 5},
	} {
		check("special", m)
	}
}

var eigenSink SymEigen3

// BenchmarkEigenSym3 times the solver on neighbourhood covariances, scalar
// form against the reference loop.
func BenchmarkEigenSym3(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ms := make([]geom.Mat3, 1024)
	for i := range ms {
		ms[i] = neighbourhoodCovariance(r, 33, 0.01)
	}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eigenSink = EigenSym3(ms[i%len(ms)])
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eigenSink = eigenSym3Reference(ms[i%len(ms)])
		}
	})
}
