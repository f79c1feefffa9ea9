package features

import (
	"math"
	"math/rand"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/search"
)

// planeCloud samples a noisy plane patch with the given unit normal.
func planeCloud(r *rand.Rand, n int, normal geom.Vec3, noise float64) *cloud.Slab {
	normal = normal.Normalize()
	u, v := normal.OrthoBasis()
	pts := make([]geom.Vec3, 0, n)
	for i := 0; i < n; i++ {
		p := u.Scale(r.Float64()*10 - 5).
			Add(v.Scale(r.Float64()*10 - 5)).
			Add(normal.Scale(r.NormFloat64() * noise))
		pts = append(pts, p)
	}
	return cloud.SlabFromPoints(pts)
}

// boxEdgeCloud samples two perpendicular faces meeting at an edge, plus
// flat surroundings; the edge points are the expected key-points.
func boxEdgeCloud(r *rand.Rand, n int) *cloud.Slab {
	pts := make([]geom.Vec3, 0, n)
	for i := 0; i < n; i++ {
		t := r.Float64()
		switch {
		case t < 0.45: // floor z=0
			pts = append(pts, geom.Vec3{X: r.Float64()*10 - 5, Y: r.Float64()*10 - 5, Z: 0})
		case t < 0.9: // wall x=2
			pts = append(pts, geom.Vec3{X: 2, Y: r.Float64()*10 - 5, Z: r.Float64() * 3})
		default: // edge line x=2, z=0
			pts = append(pts, geom.Vec3{X: 2, Y: r.Float64()*10 - 5, Z: 0})
		}
	}
	return cloud.SlabFromPoints(pts)
}

func TestPlaneSVDNormalsOnPlane(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, want := range []geom.Vec3{{Z: 1}, {X: 1}, {X: 1, Y: 1, Z: 1}} {
		want = want.Normalize()
		c := planeCloud(r, 600, want, 0.005)
		s := search.NewKDSearcherSlab(c)
		cfg := NormalConfig{Method: PlaneSVD, SearchRadius: 1.2, Viewpoint: want.Scale(100)}
		deg := EstimateNormals(c, s, cfg)
		if deg > 30 {
			t.Fatalf("too many degenerate normals: %d", deg)
		}
		good := 0
		for i := 0; i < c.Len(); i++ {
			if math.Abs(c.NormalAt(i).Dot(want)) > 0.99 {
				good++
			}
		}
		if frac := float64(good) / float64(c.Len()); frac < 0.9 {
			t.Errorf("normal %v: only %.2f aligned with plane", want, frac)
		}
	}
}

func TestAreaWeightedNormalsOnPlane(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	want := geom.Vec3{Z: 1}
	c := planeCloud(r, 500, want, 0.005)
	s := search.NewKDSearcherSlab(c)
	cfg := NormalConfig{Method: AreaWeighted, SearchRadius: 1.2, Viewpoint: geom.Vec3{Z: 100}}
	EstimateNormals(c, s, cfg)
	good := 0
	for i := 0; i < c.Len(); i++ {
		if c.NormalAt(i).Dot(want) > 0.98 {
			good++
		}
	}
	if frac := float64(good) / float64(c.Len()); frac < 0.85 {
		t.Errorf("only %.2f area-weighted normals aligned", frac)
	}
}

func TestNormalsOrientedTowardViewpoint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	c := planeCloud(r, 300, geom.Vec3{Z: 1}, 0.002)
	s := search.NewKDSearcherSlab(c)
	viewpoint := geom.Vec3{Z: 50}
	EstimateNormals(c, s, NormalConfig{SearchRadius: 1.2, Viewpoint: viewpoint})
	for i := 0; i < c.Len(); i++ {
		if c.NormalAt(i).Dot(viewpoint.Sub(c.At(i))) < 0 {
			t.Fatalf("normal %d points away from viewpoint", i)
		}
	}
}

func TestNormalsUnitLength(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	c := planeCloud(r, 200, geom.Vec3{X: 1, Z: 2}, 0.01)
	s := search.NewKDSearcherSlab(c)
	for _, method := range []NormalMethod{PlaneSVD, AreaWeighted} {
		EstimateNormals(c, s, NormalConfig{Method: method, SearchRadius: 1.5})
		for i := 0; i < c.Len(); i++ {
			if math.Abs(c.NormalAt(i).Norm()-1) > 1e-6 {
				t.Fatalf("%v: normal %d not unit: %v", method, i, c.NormalAt(i).Norm())
			}
		}
	}
}

func TestSparseNormalsDegenerate(t *testing.T) {
	c := cloud.SlabFromPoints([]geom.Vec3{{X: 0}, {X: 100}, {X: 200}})
	s := search.NewKDSearcherSlab(c)
	deg := EstimateNormals(c, s, NormalConfig{SearchRadius: 0.5})
	if deg != 3 {
		t.Errorf("expected 3 degenerate normals, got %d", deg)
	}
	for i := 0; i < c.Len(); i++ {
		if c.NormalAt(i) != (geom.Vec3{Z: 1}) {
			t.Error("degenerate normal should default to +Z")
		}
	}
}

func TestHarrisDetectsEdges(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := boxEdgeCloud(r, 3000)
	s := search.NewKDSearcherSlab(c)
	EstimateNormals(c, s, NormalConfig{SearchRadius: 0.8})
	kps := DetectKeypoints(c, s, KeypointConfig{Method: Harris3D, Radius: 0.8, ResponseQuantile: 0.95})
	if len(kps) == 0 {
		t.Fatal("no keypoints detected")
	}
	// Keypoints should concentrate near the edge x=2 (where normals vary).
	nearEdge := 0
	for _, i := range kps {
		p := c.At(i)
		if math.Abs(p.X-2) < 1.0 {
			nearEdge++
		}
	}
	if frac := float64(nearEdge) / float64(len(kps)); frac < 0.7 {
		t.Errorf("only %.2f of Harris keypoints near the edge", frac)
	}
}

func TestSIFTProducesKeypoints(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	c := boxEdgeCloud(r, 2000)
	s := search.NewKDSearcherSlab(c)
	EstimateNormals(c, s, NormalConfig{SearchRadius: 0.8})
	kps := DetectKeypoints(c, s, KeypointConfig{Method: SIFT3D, Scale: 0.4, ResponseQuantile: 0.9})
	if len(kps) == 0 {
		t.Fatal("SIFT detected nothing")
	}
	if len(kps) > c.Len()/2 {
		t.Errorf("SIFT selected %d of %d points; not sparse", len(kps), c.Len())
	}
}

func TestKeypointNonMaxSuppression(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := boxEdgeCloud(r, 2000)
	s := search.NewKDSearcherSlab(c)
	EstimateNormals(c, s, NormalConfig{SearchRadius: 0.8})
	const radius = 1.0
	kps := DetectKeypoints(c, s, KeypointConfig{Method: Harris3D, Radius: radius, ResponseQuantile: 0.9})
	// No two keypoints may be within the suppression radius; the edge
	// is a line so Y separation is what matters.
	for i := 0; i < len(kps); i++ {
		for j := i + 1; j < len(kps); j++ {
			if c.At(kps[i]).Dist(c.At(kps[j])) < radius-1e-9 {
				t.Fatalf("keypoints %d and %d within suppression radius", kps[i], kps[j])
			}
		}
	}
}

func TestMaxKeypointsHonored(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	c := boxEdgeCloud(r, 1500)
	s := search.NewKDSearcherSlab(c)
	EstimateNormals(c, s, NormalConfig{SearchRadius: 0.8})
	kps := DetectKeypoints(c, s, KeypointConfig{Method: Harris3D, MaxKeypoints: 5})
	if len(kps) > 5 {
		t.Errorf("MaxKeypoints ignored: %d", len(kps))
	}
}

func TestDescriptorDims(t *testing.T) {
	if FPFH.Dim() != 33 {
		t.Errorf("FPFH dim = %d", FPFH.Dim())
	}
	if SHOT.Dim() != 352 {
		t.Errorf("SHOT dim = %d", SHOT.Dim())
	}
	if SC3D.Dim() != 160 {
		t.Errorf("3DSC dim = %d", SC3D.Dim())
	}
}

// descriptorTestCloud builds a structured cloud with normals for
// descriptor tests.
func descriptorTestCloud(r *rand.Rand) (*cloud.Slab, *search.KDSearcher) {
	c := boxEdgeCloud(r, 2500)
	s := search.NewKDSearcherSlab(c)
	EstimateNormals(c, s, NormalConfig{SearchRadius: 0.8})
	return c, s
}

func TestDescriptorsFiniteAndNonzero(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	c, s := descriptorTestCloud(r)
	kps := []int{10, 100, 500, 900}
	for _, method := range []DescriptorMethod{FPFH, SHOT, SC3D} {
		d := ComputeDescriptors(c, s, kps, DescriptorConfig{Method: method, SearchRadius: 1.2})
		if d.Count() != len(kps) {
			t.Fatalf("%v: count = %d", method, d.Count())
		}
		for i := 0; i < d.Count(); i++ {
			var sum float64
			for _, v := range d.Row(i) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v: non-finite descriptor entry", method)
				}
				sum += math.Abs(v)
			}
			if sum == 0 {
				t.Fatalf("%v: zero descriptor for keypoint %d", method, i)
			}
		}
	}
}

func TestFPFHInvariantToRigidTransform(t *testing.T) {
	// Darboux angles are relative quantities, so FPFH must be (nearly)
	// invariant under a rigid transform of the whole cloud.
	r := rand.New(rand.NewSource(10))
	c, s := descriptorTestCloud(r)
	kps := []int{50, 400, 800}
	d1 := ComputeDescriptors(c, s, kps, DescriptorConfig{Method: FPFH, SearchRadius: 1.2})

	tr := geom.Transform{R: geom.RotZ(0.6).Mul(geom.RotX(0.2)), T: geom.Vec3{X: 5, Y: -3, Z: 2}}
	moved := c.Clone()
	moved.TransformInPlace(tr)
	s2 := search.NewKDSearcherSlab(moved)
	d2 := ComputeDescriptors(moved, s2, kps, DescriptorConfig{Method: FPFH, SearchRadius: 1.2})

	for i := range kps {
		var diff, norm float64
		for j := 0; j < d1.Dim; j++ {
			diff += math.Abs(d1.Row(i)[j] - d2.Row(i)[j])
			norm += math.Abs(d1.Row(i)[j])
		}
		if diff/norm > 0.05 {
			t.Errorf("FPFH changed by %.1f%% under rigid transform", 100*diff/norm)
		}
	}
}

func TestDescriptorsDiscriminative(t *testing.T) {
	// A point on the flat floor and a point on the edge must have clearly
	// different descriptors; two nearby points on the same flat floor must
	// be similar. Use FPFH (the most standard choice).
	r := rand.New(rand.NewSource(11))
	c, s := descriptorTestCloud(r)
	var floorA, floorB, edge int = -1, -1, -1
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		switch {
		case floorA < 0 && p.Z == 0 && p.X < -2:
			floorA = i
		case floorB < 0 && p.Z == 0 && p.X < -1 && p.X > -2:
			floorB = i
		case edge < 0 && p.Z == 0 && p.X == 2:
			edge = i
		}
	}
	if floorA < 0 || floorB < 0 || edge < 0 {
		t.Skip("cloud did not produce the required sample points")
	}
	d := ComputeDescriptors(c, s, []int{floorA, floorB, edge}, DescriptorConfig{Method: FPFH, SearchRadius: 1.0})
	dFloor := l2dist2(d.Row(0), d.Row(1))
	dEdge := l2dist2(d.Row(0), d.Row(2))
	if dEdge < dFloor*2 {
		t.Errorf("edge descriptor not discriminative: floor-floor %v, floor-edge %v", dFloor, dEdge)
	}
}

func TestFeatureTreeMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, dim := range []int{8, 33} {
		d := &Descriptors{Dim: dim, Data: make([]float64, dim*300)}
		for i := range d.Data {
			d.Data[i] = r.Float64()
		}
		qs := make([][]float64, 30)
		for trial := range qs {
			qs[trial] = make([]float64, dim)
			for i := range qs[trial] {
				qs[trial][i] = r.Float64()
			}
		}
		for trial, got := range NewFeatureTree(d).NearestBatch(qs, 1) {
			want, _ := BruteNearestFeature(d, qs[trial])
			if got.Row < 0 || math.Abs(got.Dist2-want.Dist2) > 1e-12 {
				t.Fatalf("dim %d: tree %v vs brute %v", dim, got, want)
			}
		}
	}
}

func TestFeatureTreeEmpty(t *testing.T) {
	tree := NewFeatureTree(&Descriptors{Dim: 4})
	if got := tree.NearestBatch([][]float64{{0, 0, 0, 0}}, 1); got[0].Row != -1 {
		t.Errorf("empty feature tree returned match %+v", got[0])
	}
}

func BenchmarkEstimateNormals(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	c := boxEdgeCloud(r, 3000)
	s := search.NewKDSearcherSlab(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateNormals(c, s, NormalConfig{SearchRadius: 0.8})
	}
}

func BenchmarkFPFHDescriptors(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	c := boxEdgeCloud(r, 3000)
	s := search.NewKDSearcherSlab(c)
	EstimateNormals(c, s, NormalConfig{SearchRadius: 0.8})
	kps := make([]int, 64)
	for i := range kps {
		kps[i] = i * 40
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDescriptors(c, s, kps, DescriptorConfig{Method: FPFH, SearchRadius: 1.0})
	}
}

func BenchmarkHarrisKeypoints(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	c := boxEdgeCloud(r, 3000)
	s := search.NewKDSearcherSlab(c)
	EstimateNormals(c, s, NormalConfig{SearchRadius: 0.8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectKeypoints(c, s, KeypointConfig{Method: Harris3D, Radius: 0.8})
	}
}
