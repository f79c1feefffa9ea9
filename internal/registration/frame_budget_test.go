package registration

import (
	"runtime"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/features"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// The per-frame allocation ceilings of a warmed streaming session. A
// released frame hands back everything it allocated — its slabs and
// normal columns, the arrays of both search indexes, its descriptors —
// and the next frame draws the same arrays from the pools (PreparedFrame
// .Release), so what a frame still allocates is its small stage outputs
// (key-point lists and positions, correspondences, the feature trees)
// and the sync.Pool scratch the collection before the measurement
// emptied: measured 0.05–0.19 MB and 81–88 allocations per frame on the
// default two-stage backend. The same path allocated ≈ 1.7 MB and ≈ 420
// allocations while each frame's slabs, normals and tree arrays were
// fresh, ≈ 895 allocations while the point-to-plane solve allocated per
// pass and per damping attempt, and ≈ 21 MB and ≈ 120 k before the hot
// path's scratch was recycled. The headroom covers a frame on which a
// result arena still grows, so a frame that stops recycling its slabs or
// tree arrays (≈ 0.5 MB), or a regression that re-introduces per-point,
// per-query or per-pass garbage, fails here long before it shows in
// bench/'s alloc_mb_per_frame.
const (
	frameBudgetBytes  = 0.4e6
	frameBudgetAllocs = 130
)

// budgetConfig is the benchmark's odometry design point (dse DP5:
// balanced, area-weighted normals, strided point-to-plane ICP) on one
// worker, written out because dse imports this package.
func budgetConfig() PipelineConfig {
	return PipelineConfig{
		VoxelLeaf: 0.3,
		Searcher:  SearcherConfig{Backend: search.BackendTwoStage, Parallelism: 1},
		Normal:    features.NormalConfig{Method: features.AreaWeighted, SearchRadius: 0.5},
		Keypoint: features.KeypointConfig{
			Method: features.Harris3D, Radius: 1.0, ResponseQuantile: 0.9, MaxKeypoints: 300,
		},
		Descriptor: features.DescriptorConfig{Method: features.FPFH, SearchRadius: 1.2},
		Rejection:  RejectionConfig{Method: RejectRANSAC, Seed: 7},
		ICP: ICPConfig{
			Metric: PointToPlane, MaxIterations: 30, SourceStride: 3, EuclideanFitnessEpsilon: 1e-8,
		},
	}
}

func TestFrameAllocationBudget(t *testing.T) {
	skipUnderRace(t)
	const warm, measured = 6, 4
	seq := synth.GenerateSequence(synth.EvalSequenceConfig(warm+measured, 23))
	cfg := budgetConfig()

	// One session step: the frame's ingest into pooled columns (what
	// stream.Engine.Push does), its front-end, its alignment against the
	// previous frame, and the previous frame's release — what the
	// streaming engine does per push.
	var prev *PreparedFrame
	step := func(c *cloud.Cloud) {
		cur := PrepareFrameSlab(cloud.SlabFromCloud(c), cfg)
		if prev != nil {
			Align(cur, prev, cfg)
			prev.Release()
		}
		prev = cur
	}
	for _, c := range seq.Frames[:warm] {
		step(c)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, c := range seq.Frames[warm:] {
		step(c)
	}
	runtime.ReadMemStats(&m1)

	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / measured
	allocs := float64(m1.Mallocs-m0.Mallocs) / measured
	t.Logf("%.2f MB and %.0f allocations per frame (ceilings %.2f MB, %d)", bytes/1e6, allocs, frameBudgetBytes/1e6, frameBudgetAllocs)
	if bytes > frameBudgetBytes {
		t.Errorf("a warmed frame allocates %.2f MB, ceiling %.2f MB", bytes/1e6, frameBudgetBytes/1e6)
	}
	if allocs > frameBudgetAllocs {
		t.Errorf("a warmed frame makes %.0f allocations, ceiling %d", allocs, frameBudgetAllocs)
	}
}
