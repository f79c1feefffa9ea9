package features

import (
	"math/rand"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/search"
)

// cloneSlab copies points (not normals) so two stage runs never share
// normal storage.
func cloneSlab(s *cloud.Slab) *cloud.Slab {
	return cloud.SlabFromPoints(s.Points())
}

// TestEstimateNormalsParallelMatchesSequential: the batched two-sweep
// normal estimation must be bit-identical to the sequential loop for any
// worker count, including the degenerate-point tally.
func TestEstimateNormalsParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	base := boxEdgeCloud(r, 2000)
	for _, method := range []NormalMethod{PlaneSVD, AreaWeighted} {
		ref := cloneSlab(base)
		refS := search.NewKDSearcherSlab(ref)
		refS.SetParallelism(1)
		refDegen := EstimateNormals(ref, refS, NormalConfig{Method: method, SearchRadius: 0.8})

		for _, workers := range []int{2, 8} {
			c := cloneSlab(base)
			s := search.NewKDSearcherSlab(c)
			s.SetParallelism(workers)
			degen := EstimateNormals(c, s, NormalConfig{Method: method, SearchRadius: 0.8})
			if degen != refDegen {
				t.Errorf("%v/p%d: degenerate count %d, want %d", method, workers, degen, refDegen)
			}
			for i := 0; i < c.Len(); i++ {
				if c.NormalAt(i) != ref.NormalAt(i) {
					t.Fatalf("%v/p%d: normal[%d] = %v, want %v", method, workers, i, c.NormalAt(i), ref.NormalAt(i))
				}
			}
		}
	}
}

// TestComputeDescriptorsParallelMatchesSequential: every descriptor's
// batched fan-out (including FPFH's precomputed SPFH table replacing the
// sequential memoization cache) must reproduce the sequential rows.
func TestComputeDescriptorsParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	c, s := descriptorTestCloud(r)
	kps := DetectKeypoints(c, s, KeypointConfig{Method: Harris3D, Radius: 1.0, MaxKeypoints: 60})
	if len(kps) == 0 {
		t.Fatal("no keypoints detected")
	}
	for _, method := range []DescriptorMethod{FPFH, SHOT, SC3D} {
		cfg := DescriptorConfig{Method: method, SearchRadius: 1.2}
		s.SetParallelism(1)
		ref := ComputeDescriptors(c, s, kps, cfg)
		for _, workers := range []int{2, 8} {
			s.SetParallelism(workers)
			got := ComputeDescriptors(c, s, kps, cfg)
			if got.Count() != ref.Count() || got.Dim != ref.Dim {
				t.Fatalf("%v/p%d: shape %dx%d, want %dx%d", method, workers, got.Count(), got.Dim, ref.Count(), ref.Dim)
			}
			for i := range got.Data {
				if got.Data[i] != ref.Data[i] {
					t.Fatalf("%v/p%d: data[%d] = %v, want %v", method, workers, i, got.Data[i], ref.Data[i])
				}
			}
		}
	}
}

// TestDetectKeypointsParallelMatchesSequential: the batched response
// computation must leave the detected key-point list unchanged.
func TestDetectKeypointsParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	c, s := descriptorTestCloud(r)
	for _, method := range []KeypointMethod{Harris3D, SIFT3D} {
		cfg := KeypointConfig{Method: method, Radius: 1.0, Scale: 0.5, MaxKeypoints: 100}
		s.SetParallelism(1)
		ref := DetectKeypoints(c, s, cfg)
		s.SetParallelism(8)
		got := DetectKeypoints(c, s, cfg)
		if len(got) != len(ref) {
			t.Fatalf("%v: %d keypoints, want %d", method, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%v: keypoint[%d] = %d, want %d", method, i, got[i], ref[i])
			}
		}
	}
}

// TestFeatureTreeNearestBatchMatchesSequential covers the KPCE-side batch
// path and its merged metrics: every width gives the brute-force answer and
// the one-worker batch's visit count.
func TestFeatureTreeNearestBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	c, s := descriptorTestCloud(r)
	kps := DetectKeypoints(c, s, KeypointConfig{Method: Harris3D, Radius: 1.0, MaxKeypoints: 80})
	desc := ComputeDescriptors(c, s, kps, DescriptorConfig{Method: FPFH, SearchRadius: 1.2})
	if desc.Count() < 10 {
		t.Skip("not enough descriptors")
	}
	half := desc.Count() / 2
	index := &Descriptors{Dim: desc.Dim, Data: desc.Data[:half*desc.Dim]}
	queries := make([][]float64, desc.Count()-half)
	for i := range queries {
		queries[i] = desc.Row(half + i)
	}

	want := make([]FeatureMatch, len(queries))
	for i, q := range queries {
		want[i], _ = BruteNearestFeature(index, q)
	}
	ref := NewFeatureTree(index)
	ref.NearestBatch(queries, 1)
	for _, workers := range []int{1, 4} {
		tree := NewFeatureTree(index)
		got := tree.NearestBatch(queries, workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("p%d: match[%d] = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
		if tree.Queries != int64(len(queries)) {
			t.Errorf("p%d: queries = %d, want %d", workers, tree.Queries, len(queries))
		}
		if tree.Visited != ref.Visited {
			t.Errorf("p%d: visited = %d, want %d", workers, tree.Visited, ref.Visited)
		}
	}
}
