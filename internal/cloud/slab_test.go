package cloud

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"tigris/internal/geom"
)

func randVecs(r *rand.Rand, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.Vec3{
			X: r.Float64()*100 - 50,
			Y: r.Float64()*100 - 50,
			Z: r.Float64()*10 - 5,
		}
	}
	return pts
}

// TestSlabQuantizeOnce pins the precision contract: At(i) returns exactly
// the float32-snapped input (geom.Vec3.Quantize32), and a second round
// trip through the slab is the identity.
func TestSlabQuantizeOnce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randVecs(r, 500)
	s := SlabFromPoints(pts)
	for i, p := range pts {
		if got, want := s.At(i), p.Quantize32(); got != want {
			t.Fatalf("At(%d) = %v, want Quantize32 %v", i, got, want)
		}
	}
	// Re-ingesting the dequantized points must be lossless.
	s2 := SlabFromPoints(s.Points())
	for i := 0; i < s.Len(); i++ {
		if s.At(i) != s2.At(i) {
			t.Fatalf("second quantization moved point %d", i)
		}
	}
}

func TestSlabRoundTripCloud(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	c := &Cloud{Points: randVecs(r, 200), Normals: randVecs(r, 200)}
	for i, n := range c.Normals {
		c.Normals[i] = n.Normalize()
	}
	s := SlabFromCloud(c)
	if !s.HasNormals() {
		t.Fatal("normals lost on ingest")
	}
	if s.Len() != c.Len() {
		t.Fatalf("round trip shape: %d points, want %d", s.Len(), c.Len())
	}
	for i, p := range s.Points() {
		if p != c.Points[i].Quantize32() {
			t.Fatalf("point %d moved beyond quantization", i)
		}
		if s.NormalAt(i) != c.Normals[i].Quantize32() {
			t.Fatalf("normal %d moved beyond quantization", i)
		}
	}
}

func TestSlabResetAppendReusesCapacity(t *testing.T) {
	s := NewSlab(0)
	s.EnsureNormals()
	for i := 0; i < 100; i++ {
		s.Append(geom.Vec3{X: float64(i)})
		s.AppendNormal(geom.Vec3{Z: 1})
	}
	capX := cap(s.Xs)
	s.Reset()
	if s.Len() != 0 || !s.HasNormals() {
		t.Fatalf("reset: len=%d normals=%v", s.Len(), s.HasNormals())
	}
	for i := 0; i < 100; i++ {
		s.Append(geom.Vec3{Y: float64(i)})
		s.AppendNormal(geom.Vec3{Z: 1})
	}
	if cap(s.Xs) != capX {
		t.Errorf("append after reset reallocated: cap %d -> %d", capX, cap(s.Xs))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSlabSelectAndClone covers Clone alone since Slab.Select, which had
// no caller but this test, was deleted.
func TestSlabSelectAndClone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := SlabFromCloud(&Cloud{Points: randVecs(r, 50), Normals: randVecs(r, 50)})
	cl := s.Clone()
	if cl.Len() != s.Len() || !cl.HasNormals() || cl.At(7) != s.At(7) || cl.NormalAt(7) != s.NormalAt(7) {
		t.Fatalf("clone shape: %d points, normals=%v", cl.Len(), cl.HasNormals())
	}
	cl.SetPoint(0, geom.Vec3{X: 999})
	if s.At(0) == cl.At(0) {
		t.Fatal("clone shares storage with source")
	}
}

// TestSlabCloneSharesNoNormalArray: a clone's normals are its own, both
// ways round — the streaming engine hands the loop detector a clone of a
// frame's raw cloud and then keeps estimating normals into the original
// while a verification reads the clone. A clone of a slab that has no
// normal arrays yet must not acquire the ones its origin gets later.
func TestSlabCloneSharesNoNormalArray(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := SlabFromCloud(&Cloud{Points: randVecs(r, 40), Normals: randVecs(r, 40)})
	cl := s.Clone()
	for name, pair := range map[string][2][]float32{"NXs": {s.NXs, cl.NXs}, "NYs": {s.NYs, cl.NYs}, "NZs": {s.NZs, cl.NZs}} {
		if len(pair[1]) != len(pair[0]) || &pair[0][0] == &pair[1][0] {
			t.Fatalf("%s: clone has %d normals for %d, or aliases its origin", name, len(pair[1]), len(pair[0]))
		}
	}
	before := cl.NormalAt(7)
	s.SetNormal(7, geom.Vec3{Z: 1})
	if cl.NormalAt(7) != before {
		t.Error("a normal written to the origin showed in the clone")
	}
	cl.SetNormal(8, geom.Vec3{Y: 1})
	if s.NormalAt(8) == (geom.Vec3{Y: 1}) {
		t.Error("a normal written to the clone showed in the origin")
	}

	bare := SlabFromPoints(randVecs(r, 40))
	early := bare.Clone()
	bare.EnsureNormals()
	bare.SetNormal(0, geom.Vec3{X: 1})
	if early.HasNormals() || early.NXs != nil {
		t.Error("a clone taken before its origin had normals has them now")
	}
}

// TestSlabBytesHalvesAoS pins the slab's storage claim: coordinate
// payload is 12 B/point against the 24 of a []geom.Vec3, with and without
// normals.
func TestSlabBytesHalvesAoS(t *testing.T) {
	s := NewSlab(1000)
	if got, want := s.Bytes(), int64(12000); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	if aos := int64(unsafe.Sizeof(geom.Vec3{})) * 1000; aos != 2*s.Bytes() {
		t.Fatalf("[]geom.Vec3 at %d B is not 2x Bytes %d", aos, s.Bytes())
	}
	s.EnsureNormals()
	if got, want := s.Bytes(), int64(24000); got != want {
		t.Fatalf("Bytes with normals = %d, want %d", got, want)
	}
}

func TestSlabValidateErrors(t *testing.T) {
	bad := &Slab{Xs: make([]float32, 3), Ys: make([]float32, 2), Zs: make([]float32, 3)}
	if bad.Validate() == nil {
		t.Error("unequal axis slices accepted")
	}
	nan := NewSlab(2)
	nan.Xs[1] = float32(math.NaN())
	if nan.Validate() == nil {
		t.Error("NaN coordinate accepted")
	}
	halfN := NewSlab(3)
	halfN.NXs = make([]float32, 3) // NYs/NZs missing
	if halfN.Validate() == nil {
		t.Error("partial normal slabs accepted")
	}
}

func TestSlabTransformInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := SlabFromCloud(&Cloud{Points: randVecs(r, 100), Normals: randVecs(r, 100)})
	before := s.Clone()
	tr := geom.Transform{R: geom.RotZ(0.4), T: geom.Vec3{X: 1, Y: -2, Z: 0.5}}
	s.TransformInPlace(tr)
	for i := 0; i < s.Len(); i++ {
		want := tr.Apply(before.At(i)).Quantize32()
		if s.At(i) != want {
			t.Fatalf("point %d: %v, want %v", i, s.At(i), want)
		}
		wantN := tr.ApplyDirection(before.NormalAt(i)).Quantize32()
		if s.NormalAt(i) != wantN {
			t.Fatalf("normal %d: %v, want %v", i, s.NormalAt(i), wantN)
		}
	}
}

// TestSlabDist2AndComponent covers Dist2 alone since Slab.Component,
// which had no caller but this test, was deleted.
func TestSlabDist2AndComponent(t *testing.T) {
	s := SlabFromPoints([]geom.Vec3{{X: 1, Y: 2, Z: 3}})
	q := geom.Vec3{X: 2, Y: 0, Z: 7}
	if got, want := s.Dist2(q, 0), q.Dist2(s.At(0)); got != want {
		t.Errorf("Dist2 = %v, want %v", got, want)
	}
}
