package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tigris/internal/geom"
)

func randSym(r *rand.Rand) geom.Mat3 {
	var m geom.Mat3
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			v := r.Float64()*10 - 5
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func randMat(r *rand.Rand) geom.Mat3 {
	var m geom.Mat3
	for i := range m {
		m[i] = r.Float64()*10 - 5
	}
	return m
}

func mat3Approx(a, b geom.Mat3, tol float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestEigenSym3Reconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		m := randSym(r)
		e := EigenSym3(m)
		// Reconstruct M = Σ λᵢ·vᵢvᵢᵀ.
		var rec geom.Mat3
		for k := 0; k < 3; k++ {
			rec = rec.Add(geom.OuterProduct(e.Vectors[k], e.Vectors[k]).Scale(e.Values[k]))
		}
		if !mat3Approx(m, rec, 1e-8) {
			t.Fatalf("eigen reconstruction failed:\nm=%v\nrec=%v", m, rec)
		}
	}
}

func TestEigenSym3Sorted(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		e := EigenSym3(randSym(r))
		if e.Values[0] > e.Values[1] || e.Values[1] > e.Values[2] {
			t.Fatalf("eigenvalues not sorted: %v", e.Values)
		}
	}
}

func TestEigenSym3VectorsOrthonormal(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		e := EigenSym3(randSym(r))
		for a := 0; a < 3; a++ {
			if n := e.Vectors[a].Norm(); math.Abs(n-1) > 1e-9 {
				t.Fatalf("eigenvector %d not unit: %v", a, n)
			}
			for b := a + 1; b < 3; b++ {
				if d := e.Vectors[a].Dot(e.Vectors[b]); math.Abs(d) > 1e-8 {
					t.Fatalf("eigenvectors %d,%d not orthogonal: %v", a, b, d)
				}
			}
		}
	}
}

func TestEigenSym3SatisfiesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		m := randSym(r)
		e := EigenSym3(m)
		for k := 0; k < 3; k++ {
			mv := m.MulVec(e.Vectors[k])
			lv := e.Vectors[k].Scale(e.Values[k])
			if mv.Sub(lv).Norm() > 1e-7*(1+math.Abs(e.Values[k])) {
				t.Fatalf("M·v != λ·v for pair %d: %v vs %v", k, mv, lv)
			}
		}
	}
}

func TestEigenSym3Diagonal(t *testing.T) {
	m := geom.Mat3{3, 0, 0, 0, -1, 0, 0, 0, 2}
	e := EigenSym3(m)
	want := [3]float64{-1, 2, 3}
	for i := range want {
		if math.Abs(e.Values[i]-want[i]) > 1e-12 {
			t.Errorf("eigenvalue %d = %v, want %v", i, e.Values[i], want[i])
		}
	}
}

// usvt returns U·diag(S)·Vᵀ, the matrix the decomposition must give back.
func usvt(d SVD3) geom.Mat3 {
	s := geom.Mat3{d.S[0], 0, 0, 0, d.S[1], 0, 0, 0, d.S[2]}
	return d.U.Mul(s).Mul(d.V.Transpose())
}

func TestSVD3Reconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a := randMat(r)
		d := ComputeSVD3(a)
		if rec := usvt(d); !mat3Approx(a, rec, 1e-7) {
			t.Fatalf("SVD reconstruction failed:\na=%v\nrec=%v\nS=%v", a, rec, d.S)
		}
	}
}

func TestSVD3Orthogonality(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	id := geom.Identity3()
	for i := 0; i < 200; i++ {
		d := ComputeSVD3(randMat(r))
		if !mat3Approx(d.U.Transpose().Mul(d.U), id, 1e-8) {
			t.Fatal("U not orthogonal")
		}
		if !mat3Approx(d.V.Transpose().Mul(d.V), id, 1e-8) {
			t.Fatal("V not orthogonal")
		}
	}
}

func TestSVD3SortedNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		d := ComputeSVD3(randMat(r))
		if d.S[0] < d.S[1] || d.S[1] < d.S[2] || d.S[2] < 0 {
			t.Fatalf("singular values not sorted/non-negative: %v", d.S)
		}
	}
}

func TestSVD3RankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := geom.OuterProduct(geom.Vec3{X: 1, Y: 2, Z: 3}, geom.Vec3{X: 4, Y: 5, Z: 6})
	d := ComputeSVD3(a)
	if !mat3Approx(a, usvt(d), 1e-8) {
		t.Fatalf("rank-1 SVD reconstruction failed")
	}
	if d.S[1] > 1e-8 || d.S[2] > 1e-8 {
		t.Fatalf("rank-1 matrix should have one nonzero singular value: %v", d.S)
	}
	// Zero matrix.
	var z geom.Mat3
	dz := ComputeSVD3(z)
	for _, s := range dz.S {
		if s != 0 {
			t.Fatalf("zero matrix singular values: %v", dz.S)
		}
	}
}

func TestSVD3OfRotation(t *testing.T) {
	rot := geom.AxisAngle(geom.Vec3{X: 1, Y: 1, Z: 0}, 0.7)
	d := ComputeSVD3(rot)
	for _, s := range d.S {
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("rotation singular values should be 1: %v", d.S)
		}
	}
}

func TestSolveDenseKnown(t *testing.T) {
	// 2x + y = 5; x - y = 1 → x=2, y=1.
	x := []float64{5, 1}
	if err := SolveDense([]float64{2, 1, 1, -1}, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("solution = %v", x)
	}
}

// TestSolveDenseInPlace holds the solve to its contract: b receives x, a
// is left eliminated (upper triangular after the row swap), and the
// backing arrays are the caller's — no copy is solved instead.
func TestSolveDenseInPlace(t *testing.T) {
	a := []float64{0, 2, 4, 1}
	b := []float64{6, 9}
	if err := SolveDense(a, b); err != nil {
		t.Fatal(err)
	}
	// 2y = 6, 4x + y = 9 → x = 1.5, y = 3; the zero pivot swapped the rows.
	if b[0] != 1.5 || b[1] != 3 {
		t.Fatalf("b = %v, want the solution [1.5 3]", b)
	}
	if want := []float64{4, 1, 0, 2}; !slices.Equal(a, want) {
		t.Fatalf("a = %v, want the eliminated %v", a, want)
	}
}

func TestSolveDenseRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(7) // up to 8×8, covers the 6×6 LM case
		a := make([]float64, n*n)
		for i := range a {
			a[i] = r.Float64()*4 - 2
		}
		// Diagonal dominance keeps the random systems well-conditioned.
		for i := 0; i < n; i++ {
			a[i*n+i] += float64(n) * 3
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.Float64()*10 - 5
		}
		b := make([]float64, n) // b = A·want
		for i := range b {
			for j, w := range want {
				b[i] += a[i*n+j] * w
			}
		}
		if err := SolveDense(a, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(b[i]-want[i]) > 1e-8 {
				t.Fatalf("solve mismatch at %d: %v vs %v", i, b[i], want[i])
			}
		}
	}
}

func TestSolveDenseSingular(t *testing.T) {
	if err := SolveDense([]float64{1, 2, 2, 4}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for singular system")
	}
}

func TestSolveDenseDimensionMismatch(t *testing.T) {
	if err := SolveDense([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSolveDenseNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	x := []float64{3, 7}
	if err := SolveDense([]float64{0, 1, 1, 0}, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solution = %v", x)
	}
}
