package dse

import (
	"fmt"
	"slices"

	"tigris/internal/cloud"
	"tigris/internal/features"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// baseConfig is the pipeline skeleton all design points share; the knobs
// of Tbl. 1 are varied on top of it. The search backend is named
// explicitly so design points carry their backend choice visibly and
// cmds can swap it by name: the pipeline's default, the two-stage tree
// (the figures of cmd/tigris-paper name the canonical baseline instead).
func baseConfig() registration.PipelineConfig {
	return registration.PipelineConfig{
		VoxelLeaf: 0.3,
		Searcher:  registration.SearcherConfig{Backend: search.BackendTwoStage},
		Normal:    features.NormalConfig{Method: features.PlaneSVD, SearchRadius: 0.5},
		Keypoint: features.KeypointConfig{
			Method:           features.Harris3D,
			Radius:           1.0,
			ResponseQuantile: 0.9,
			MaxKeypoints:     300,
		},
		Descriptor: features.DescriptorConfig{Method: features.FPFH, SearchRadius: 1.2},
		Rejection:  registration.RejectionConfig{Method: registration.RejectRANSAC, Seed: 7},
		ICP: registration.ICPConfig{
			Metric:                  registration.PointToPlane,
			MaxIterations:           30,
			SourceStride:            2,
			EuclideanFitnessEpsilon: 1e-8,
		},
	}
}

// NamedDesignPoints returns the eight Pareto-optimal design points DP1–DP8
// the paper evaluates (Fig. 4). Each makes a distinct accuracy/performance
// trade following Tbl. 1's knobs; the §6.3 anchors are honored: DP4 is
// performance-oriented with NE radius 0.30 m and tight criteria, DP7 is
// accuracy-oriented with NE radius 0.75 m and relaxed criteria.
func NamedDesignPoints() []DesignPoint {
	dps := make([]DesignPoint, 0, 8)

	// DP1: accuracy-leaning, SHOT descriptor, reciprocal KPCE.
	dp1 := baseConfig()
	dp1.Normal.SearchRadius = 0.6
	dp1.Descriptor.Method = features.SHOT
	dp1.KPCE.Reciprocal = true
	dp1.ICP.SourceStride = 1
	dps = append(dps, DesignPoint{Name: "DP1", Config: dp1})

	// DP2: accuracy-leaning, SIFT key-points, point-to-point ICP.
	dp2 := baseConfig()
	dp2.Normal.SearchRadius = 0.6
	dp2.Keypoint.Method = features.SIFT3D
	dp2.Keypoint.Scale = 0.4
	dp2.ICP.Metric = registration.PointToPoint
	dp2.ICP.SourceStride = 1
	dps = append(dps, DesignPoint{Name: "DP2", Config: dp2})

	// DP3: balanced, 3DSC descriptor, threshold rejection.
	dp3 := baseConfig()
	dp3.Descriptor.Method = features.SC3D
	dp3.Rejection.Method = registration.RejectThreshold
	dps = append(dps, DesignPoint{Name: "DP3", Config: dp3})

	// DP4: performance-oriented (§6.3): tight NE radius 0.30 m, coarse
	// voxel, strided ICP, early convergence.
	dp4 := baseConfig()
	dp4.VoxelLeaf = 0.45
	dp4.Normal.SearchRadius = 0.30
	dp4.Descriptor.SearchRadius = 0.9
	dp4.ICP.SourceStride = 4
	dp4.ICP.MaxIterations = 15
	dp4.ICP.EuclideanFitnessEpsilon = 1e-6
	dps = append(dps, DesignPoint{Name: "DP4", Config: dp4})

	// DP5: balanced, area-weighted normals.
	dp5 := baseConfig()
	dp5.Normal.Method = features.AreaWeighted
	dp5.ICP.SourceStride = 3
	dps = append(dps, DesignPoint{Name: "DP5", Config: dp5})

	// DP6: balanced, SIFT + SHOT.
	dp6 := baseConfig()
	dp6.Keypoint.Method = features.SIFT3D
	dp6.Keypoint.Scale = 0.5
	dp6.Descriptor.Method = features.SHOT
	dps = append(dps, DesignPoint{Name: "DP6", Config: dp6})

	// DP7: accuracy-oriented (§6.3): relaxed NE radius 0.75 m, dense ICP,
	// reciprocal matching.
	dp7 := baseConfig()
	dp7.VoxelLeaf = 0.25
	dp7.Normal.SearchRadius = 0.75
	dp7.Descriptor.SearchRadius = 1.5
	dp7.KPCE.Reciprocal = true
	dp7.ICP.SourceStride = 1
	dp7.ICP.MaxIterations = 40
	dps = append(dps, DesignPoint{Name: "DP7", Config: dp7})

	// DP8: normal-estimation-heavy (the paper notes NE is ~80% of DP8):
	// very wide NE radius on a dense cloud, cheap everything else.
	dp8 := baseConfig()
	dp8.VoxelLeaf = 0.2
	dp8.Normal.SearchRadius = 1.0
	dp8.Keypoint.MaxKeypoints = 100
	dp8.ICP.SourceStride = 6
	dp8.ICP.MaxIterations = 10
	dps = append(dps, DesignPoint{Name: "DP8", Config: dp8})

	return dps
}

// DP4 returns the performance-oriented anchor point.
func DP4() DesignPoint { return NamedDesignPoints()[3] }

// DP7 returns the accuracy-oriented anchor point.
func DP7() DesignPoint { return NamedDesignPoints()[6] }

// Grid enumerates a bounded sweep over Tbl. 1's knobs for the Fig. 3
// design-space exploration: normal method × NE radius × key-point method ×
// descriptor × rejection × ICP metric × stride. The full cross product is
// pruned to a representative ~48-point grid to keep the DSE tractable.
func Grid() []DesignPoint {
	var out []DesignPoint
	id := 0
	for _, neRadius := range []float64{0.3, 0.5, 0.75} {
		for _, kp := range []features.KeypointMethod{features.Harris3D, features.SIFT3D} {
			for _, desc := range []features.DescriptorMethod{features.FPFH, features.SHOT} {
				for _, stride := range []int{1, 4} {
					for _, metric := range []registration.ErrorMetric{registration.PointToPlane, registration.PointToPoint} {
						cfg := baseConfig()
						cfg.Normal.SearchRadius = neRadius
						cfg.Keypoint.Method = kp
						cfg.Descriptor.Method = desc
						cfg.ICP.SourceStride = stride
						cfg.ICP.Metric = metric
						id++
						out = append(out, DesignPoint{
							Name:   fmt.Sprintf("G%d-r%.2f-%s-%s-s%d-%s", id, neRadius, kp, desc, stride, metric),
							Config: cfg,
						})
					}
				}
			}
		}
	}
	return out
}

// Batch is one captured stage batch and the point set it was answered
// over, as an index into Stream.Slabs.
type Batch struct {
	search.TraceBatch
	Slab int
}

// Stream is every 3D search batch one registered pair issues, in issue
// order, each kept with the point set it queried — so a replay (the
// accelerator model, a baseline device model, another backend) builds the
// same indexes and asks them the same questions. Slabs are in first-use
// order: the target's front-end cloud, the source's, and, when the
// front-end is downsampled, the target's raw cloud that fine-tuning
// searches.
type Stream struct {
	Slabs   []*cloud.Slab
	Batches []Batch
}

// Capture registers frame 1 of the sequence onto frame 0 stage by stage
// with the trace backend wrapped around the canonical tree (exact
// backends issue identical queries, so the capture is
// backend-independent; cfg.Searcher contributes only its Parallelism).
// This is the one workload source of the accelerator experiments
// (Fig. 11–15), which evaluate KD-tree search in isolation on the design
// points' search mixes (§6.3). Frames are cloned: the pipeline writes
// normals into its inputs.
func Capture(seq *synth.Sequence, cfg registration.PipelineConfig) *Stream {
	sink := &search.TraceLog{}
	cfg.Searcher = registration.SearcherConfig{
		Backend:     search.BackendTrace,
		Parallelism: cfg.Searcher.Parallelism,
		Options: search.Options{
			search.OptTraceInner: search.BackendCanonical,
			search.OptTraceSink:  sink,
		},
	}
	st := &Stream{}
	take := func(slab *cloud.Slab) {
		at := slices.Index(st.Slabs, slab)
		if at < 0 {
			at = len(st.Slabs)
			st.Slabs = append(st.Slabs, slab)
		}
		for _, b := range sink.Batches() {
			st.Batches = append(st.Batches, Batch{TraceBatch: b, Slab: at})
		}
		sink.Reset()
	}
	dst := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
	take(dst.FE)
	src := registration.PrepareFrame(seq.Frames[1].Clone(), cfg)
	take(src.FE)
	registration.Align(src, dst, cfg)
	take(dst.Raw)
	return st
}
