package features

import (
	"math"
	"math/rand"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/linalg"
	"tigris/internal/search"
)

// The reference kernels below are the per-point normal estimators as they
// stood before the scratch-backed rewrite: every neighbor dequantized at
// each use, a fresh fan per point. The production kernels must reproduce
// them bit for bit.

func refPlaneSVDNormal(nbs []kdtree.Neighbor, pts *cloud.Slab) geom.Vec3 {
	var centroid geom.Vec3
	for _, nb := range nbs {
		centroid = centroid.Add(pts.At(nb.Index))
	}
	centroid = centroid.Scale(1 / float64(len(nbs)))
	var cov geom.Mat3
	for _, nb := range nbs {
		d := pts.At(nb.Index).Sub(centroid)
		cov = cov.Add(geom.OuterProduct(d, d))
	}
	return linalg.EigenSym3(cov).Vectors[0]
}

func refAreaWeightedNormal(p geom.Vec3, nbs []kdtree.Neighbor, pts *cloud.Slab) geom.Vec3 {
	type polar struct {
		idx int
		ang float64
	}
	prov := refPlaneSVDNormal(nbs, pts)
	u, v := prov.OrthoBasis()
	ordered := make([]polar, 0, len(nbs))
	for _, nb := range nbs {
		d := pts.At(nb.Index).Sub(p)
		ordered = append(ordered, polar{idx: nb.Index, ang: math.Atan2(d.Dot(v), d.Dot(u))})
	}
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].ang < ordered[j-1].ang; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	var sum geom.Vec3
	for i := range ordered {
		a := pts.At(ordered[i].idx).Sub(p)
		b := pts.At(ordered[(i+1)%len(ordered)].idx).Sub(p)
		sum = sum.Add(a.Cross(b))
	}
	n := sum.Normalize()
	if n.Norm() == 0 {
		return prov
	}
	if n.Dot(prov) < 0 {
		n = n.Neg()
	}
	return n
}

// refEstimateNormals is the sequential per-point loop over the reference
// kernels, one query at a time.
func refEstimateNormals(c *cloud.Slab, s search.Searcher, cfg NormalConfig) int {
	cfg.defaults()
	c.EnsureNormals()
	degenerate := 0
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		nbs := s.Radius(p, cfg.SearchRadius)
		if len(nbs) < minNeighbors {
			c.SetNormal(i, geom.Vec3{Z: 1})
			degenerate++
			continue
		}
		var n geom.Vec3
		if cfg.Method == AreaWeighted {
			n = refAreaWeightedNormal(p, nbs, c)
		} else {
			n = refPlaneSVDNormal(nbs, c)
		}
		if n.Dot(cfg.Viewpoint.Sub(p)) < 0 {
			n = n.Neg()
		}
		c.SetNormal(i, n)
	}
	return degenerate
}

// TestNormalsBitIdenticalToReferenceKernels: both estimators, sequential
// and parallel sweeps, against the reference loop — every stored normal
// component equal to the bit.
func TestNormalsBitIdenticalToReferenceKernels(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	base := boxEdgeCloud(r, 1500)
	// A few coincident points so duplicate azimuths exercise the fan
	// order's stability.
	dup := base.Points()
	dup = append(dup, dup[:40]...)
	base = cloud.SlabFromPoints(dup)
	for _, method := range []NormalMethod{PlaneSVD, AreaWeighted} {
		for _, cfg := range []NormalConfig{
			{Method: method, SearchRadius: 0.8},
			{Method: method, SearchRadius: 0.05}, // mostly degenerate neighborhoods
		} {
			ref := cloneSlab(base)
			wantDegen := refEstimateNormals(ref, search.NewKDSearcherSlab(ref), cfg)
			for _, workers := range []int{1, 4} {
				c := cloneSlab(base)
				s := search.NewKDSearcherSlab(c)
				s.SetParallelism(workers)
				if degen := EstimateNormals(c, s, cfg); degen != wantDegen {
					t.Errorf("%v %+v p%d: %d degenerate points, reference %d", method, cfg, workers, degen, wantDegen)
				}
				for i := 0; i < c.Len(); i++ {
					if math.Float32bits(c.NXs[i]) != math.Float32bits(ref.NXs[i]) ||
						math.Float32bits(c.NYs[i]) != math.Float32bits(ref.NYs[i]) ||
						math.Float32bits(c.NZs[i]) != math.Float32bits(ref.NZs[i]) {
						t.Fatalf("%v %+v p%d: normal[%d] = %v, reference %v", method, cfg, workers, i, c.NormalAt(i), ref.NormalAt(i))
					}
				}
			}
		}
	}
}

// TestNormalKernelsZeroAllocs: with a worker's scratch grown to the
// neighborhood size, fitting a point allocates nothing.
func TestNormalKernelsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race")
	}
	r := rand.New(rand.NewSource(62))
	c := boxEdgeCloud(r, 1500)
	s := search.NewKDSearcherSlab(c)
	p := c.At(7)
	nbs := s.Radius(p, 0.8)
	if len(nbs) < 10 {
		t.Fatalf("fixture neighborhood has only %d points", len(nbs))
	}
	var sc normalScratch
	var sink geom.Vec3
	sc.gather(nbs, c)
	sink = sc.areaWeightedNormal(p)
	for name, kernel := range map[string]func(){
		"PlaneSVD":     func() { sc.gather(nbs, c); sink = sc.planeSVDNormal() },
		"AreaWeighted": func() { sc.gather(nbs, c); sink = sc.areaWeightedNormal(p) },
	} {
		if allocs := testing.AllocsPerRun(100, kernel); allocs != 0 {
			t.Errorf("%s allocates %.1f times per point, want 0", name, allocs)
		}
	}
	_ = sink
}

// darbouxAngles computes the three FPFH pair features (α, φ, θ) between a
// source point/normal and a target point/normal, following Rusu et al.,
// with θ from math.Atan2: the form darbouxBins must bin identically.
func darbouxAngles(ps, ns, pt, nt geom.Vec3) (alpha, phi, theta float64, ok bool) {
	d := pt.Sub(ps)
	dist := d.Norm()
	if dist < 1e-12 {
		return 0, 0, 0, false
	}
	dn := d.Scale(1 / dist)
	u := ns
	v := dn.Cross(u)
	if v.Norm() < 1e-12 {
		return 0, 0, 0, false
	}
	v = v.Normalize()
	w := u.Cross(v)
	alpha = v.Dot(nt)                        // ∈ [-1, 1]
	phi = u.Dot(dn)                          // ∈ [-1, 1]
	theta = math.Atan2(w.Dot(nt), u.Dot(nt)) // ∈ [-π, π]
	return alpha, phi, theta, true
}

// refFPFH is FPFH as it stood before the flat SPFH table: every SPFH its
// own slice, memoized in a map, one radius query per support point.
func refFPFH(c *cloud.Slab, s search.Searcher, keypoints []int, radius float64) []float64 {
	spfhOf := func(pi int, nbs []kdtree.Neighbor) []float64 {
		h := make([]float64, 3*fpfhBinsPerAngle)
		p, n := c.At(pi), c.NormalAt(pi)
		count := 0
		for _, nb := range nbs {
			if nb.Index == pi {
				continue
			}
			alpha, phi, theta, ok := darbouxAngles(p, n, c.At(nb.Index), c.NormalAt(nb.Index))
			if !ok {
				continue
			}
			h[binUnit(alpha)]++
			h[fpfhBinsPerAngle+binUnit(phi)]++
			h[2*fpfhBinsPerAngle+binAngle(theta)]++
			count++
		}
		if count > 0 {
			inv := 100 / float64(count)
			for i := range h {
				h[i] *= inv
			}
		}
		return h
	}
	cache := map[int][]float64{}
	lookup := func(pi int) []float64 {
		if h, ok := cache[pi]; ok {
			return h
		}
		h := spfhOf(pi, s.Radius(c.At(pi), radius))
		cache[pi] = h
		return h
	}
	dim := FPFH.Dim()
	out := make([]float64, dim*len(keypoints))
	for ki, pi := range keypoints {
		row := out[ki*dim : (ki+1)*dim]
		nbs := s.Radius(c.At(pi), radius)
		copy(row, lookup(pi))
		var wsum float64
		acc := make([]float64, dim)
		for _, nb := range nbs {
			if nb.Index == pi || nb.Dist2 < 1e-12 {
				continue
			}
			w := 1 / math.Sqrt(nb.Dist2)
			h := lookup(nb.Index)
			for i := range acc {
				acc[i] += w * h[i]
			}
			wsum += w
		}
		if wsum > 0 {
			for i := range row {
				row[i] += acc[i] / wsum
			}
		}
	}
	return out
}

// TestFPFHBitIdenticalToReference: the recycled flat SPFH table yields
// the rows of the memoizing reference, on a fresh table and on a
// recycled one sized by a different (larger) cloud.
func TestFPFHBitIdenticalToReference(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	c, s := descriptorTestCloud(r)
	kps := DetectKeypoints(c, s, KeypointConfig{Method: Harris3D, Radius: 1.0, MaxKeypoints: 40})
	if len(kps) == 0 {
		t.Fatal("no keypoints detected")
	}
	const radius = 1.2
	want := refFPFH(c, s, kps, radius)
	for round := 0; round < 2; round++ {
		got := ComputeDescriptors(c, s, kps, DescriptorConfig{Method: FPFH, SearchRadius: radius})
		for i := range want {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: data[%d] = %v, reference %v", round, i, got.Data[i], want[i])
			}
		}
		// Leave a table behind that was sized and filled by another cloud.
		big, bigS := descriptorTestCloud(rand.New(rand.NewSource(64 + int64(round))))
		bigKps := DetectKeypoints(big, bigS, KeypointConfig{Method: Harris3D, Radius: 1.0, MaxKeypoints: 80})
		ComputeDescriptors(big, bigS, bigKps, DescriptorConfig{Method: FPFH, SearchRadius: 1.5})
	}
}

// refHarrisResponses is the Harris3D response as it stood before the
// six-sum covariance: nine entries accumulated through
// Mat3.Add(OuterProduct), one radius query per point.
func refHarrisResponses(c *cloud.Slab, s search.Searcher, cfg KeypointConfig) []float64 {
	cfg.defaults()
	res := make([]float64, c.Len())
	for i := range res {
		nbs := s.Radius(c.At(i), cfg.Radius)
		if len(nbs) < 5 {
			continue
		}
		var mean geom.Vec3
		for _, nb := range nbs {
			mean = mean.Add(c.NormalAt(nb.Index))
		}
		mean = mean.Scale(1 / float64(len(nbs)))
		var cov geom.Mat3
		for _, nb := range nbs {
			d := c.NormalAt(nb.Index).Sub(mean)
			cov = cov.Add(geom.OuterProduct(d, d))
		}
		cov = cov.Scale(1 / float64(len(nbs)))
		res[i] = cov.Trace() + cov.Det()/harrisK
	}
	return res
}

// TestHarrisBitIdenticalToReference: every point's response equals the
// nine-entry reference's to the bit, at one worker and at four.
func TestHarrisBitIdenticalToReference(t *testing.T) {
	c := boxEdgeCloud(rand.New(rand.NewSource(65)), 1500)
	s := search.NewKDSearcherSlab(c)
	EstimateNormals(c, s, NormalConfig{SearchRadius: 0.8})
	for _, radius := range []float64{0.8, 1.5} {
		cfg := KeypointConfig{Method: Harris3D, Radius: radius}
		want := refHarrisResponses(c, s, cfg)
		for _, workers := range []int{1, 4} {
			s.SetParallelism(workers)
			cfg.defaults()
			got := make([]float64, c.Len())
			harrisResponses(c, s, cfg, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("radius %v p%d: response[%d] = %v, reference %v", radius, workers, i, got[i], want[i])
				}
			}
		}
	}
}
