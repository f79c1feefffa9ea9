package registration_test

import (
	"math"
	"sync"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/features"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// The tests here hold Align's on-demand fine-tuning normals to the
// pipeline they replaced: estimate a normal for every raw target point
// first, then run ICP. They live outside the package because the named
// design points come from dse, which imports it.

// fineSequence renders three consecutive frames at the quick scale.
func fineSequence(seed int64) *synth.Sequence {
	return synth.GenerateSequence(synth.QuickSequenceConfig(3, seed))
}

// smallSequence is fineSequence at about half the points, for the
// brute-force backend, whose fine-tuning is quadratic in them.
func smallSequence(seed int64) *synth.Sequence {
	cfg := synth.QuickSequenceConfig(3, seed)
	cfg.Lidar.Beams, cfg.Lidar.AzimuthSteps = 12, 220
	return synth.GenerateSequence(cfg)
}

// eagerICP is the reference fine-tuning phase: a fresh index over a copy
// of the target's raw cloud, a normal for every one of its points when the
// metric reads normals, then the exported ICP from Align's own initial
// estimate, with Align's parallelism and injection settings.
func eagerICP(src, dst *registration.PreparedFrame, initial geom.Transform, cfg registration.PipelineConfig) registration.ICPResult {
	target := dst.FESearch
	if dst.FE != dst.Raw {
		raw := cloud.SlabFromPoints(dst.Raw.Points())
		s, err := search.NewByNameSlab(cfg.Searcher.BackendName(), raw, cfg.Searcher.BackendOptions())
		if err != nil {
			panic(err)
		}
		if cfg.ICP.Metric == registration.PointToPlane {
			features.EstimateNormals(raw, s, cfg.Normal)
		}
		target = s
	}
	if cfg.Inject.RPCEKthNN > 1 {
		target = &search.KthNNSearcher{Searcher: target, K: cfg.Inject.RPCEKthNN}
	}
	target.SetParallelism(cfg.Searcher.Parallelism)
	return registration.ICP(src.Raw, target, initial, cfg.ICP)
}

// poisonRawNormals fills the raw cloud's normal slots with NaN, so that
// a gather of a normal nobody estimated cannot go unnoticed: it would
// reach the solver and the pose.
func poisonRawNormals(f *registration.PreparedFrame) {
	if f.FE == f.Raw {
		return
	}
	f.Raw.EnsureNormals()
	nan := math.NaN()
	for i := 0; i < f.Raw.Len(); i++ {
		f.Raw.SetNormal(i, geom.Vec3{X: nan, Y: nan, Z: nan})
	}
}

func sameICP(a, b registration.ICPResult) bool {
	return a.Transform == b.Transform && a.Iterations == b.Iterations &&
		math.Float64bits(a.FinalRMSE) == math.Float64bits(b.FinalRMSE) && a.Converged == b.Converged
}

// TestAlignMatchesEagerReference: for all eight named design points, plus
// k-th-NN injection, on every exact backend, Align
// gives the transform, iteration count and final RMSE of the eager
// reference, bit for bit — with the target's raw normal slots poisoned
// beforehand, so it also proves that every normal ICP gathered had been
// estimated.
func TestAlignMatchesEagerReference(t *testing.T) {
	seq, small := fineSequence(91), smallSequence(91)
	type variant struct {
		name string
		cfg  registration.PipelineConfig
	}
	var variants []variant
	for _, dp := range dse.NamedDesignPoints() {
		variants = append(variants, variant{dp.Name, dp.Config})
	}
	kth := dse.NamedDesignPoints()[4].Config
	kth.Inject.RPCEKthNN = 3
	variants = append(variants, variant{"DP5+rpce-3rd-nn", kth})

	for _, backend := range []string{search.BackendCanonical, search.BackendTwoStage, search.BackendBruteForce} {
		for _, v := range variants {
			t.Run(backend+"/"+v.name, func(t *testing.T) {
				seq := seq
				if backend == search.BackendBruteForce {
					seq = small
				}
				cfg := v.cfg
				cfg.Searcher.Backend = backend
				cfg.Searcher.Parallelism = 2
				src := registration.PrepareFrame(seq.Frames[1].Clone(), cfg)
				dst := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
				poisonRawNormals(dst)
				res := registration.Align(src, dst, cfg)
				want := eagerICP(src, dst, res.Initial, cfg)
				if !sameICP(res.ICP, want) {
					t.Fatalf("on-demand fine-tuning differs from the eager reference:\n%+v\nvs\n%+v", res.ICP, want)
				}
				if res.Transform != want.Transform {
					t.Fatalf("Result.Transform is not the ICP transform")
				}
				lazy := dst.FE != dst.Raw && cfg.ICP.Metric == registration.PointToPlane
				if lazy && (res.FineNormals == 0 || res.FineNormals > res.FineTargetPoints || res.FineTargetPoints != dst.Raw.Len()) {
					t.Errorf("estimated %d of %d target normals (raw cloud has %d points)", res.FineNormals, res.FineTargetPoints, dst.Raw.Len())
				}
				if !lazy && (res.FineNormals != 0 || res.FineTargetPoints != 0) {
					t.Errorf("nothing to estimate on demand, yet FineNormals %d / FineTargetPoints %d", res.FineNormals, res.FineTargetPoints)
				}
			})
		}
	}
}

// TestFineNormalsAreRemembered: a target keeps the normals it has. The
// same pair aligned again estimates none and gives the same answer;
// another source against the same target estimates only what its matches
// add, and still matches its own eager reference; a front-end that ran
// on the raw cloud leaves fine-tuning nothing to estimate.
func TestFineNormalsAreRemembered(t *testing.T) {
	seq := fineSequence(92)
	cfg := dse.NamedDesignPoints()[4].Config // DP5
	cfg.Searcher.Parallelism = 1
	src1 := registration.PrepareFrame(seq.Frames[1].Clone(), cfg)
	src2 := registration.PrepareFrame(seq.Frames[2].Clone(), cfg)
	dst := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
	poisonRawNormals(dst)

	first := registration.Align(src1, dst, cfg)
	if first.FineNormals == 0 || dst.FineNormals() != first.FineNormals {
		t.Fatalf("first alignment estimated %d normals, frame reports %d", first.FineNormals, dst.FineNormals())
	}
	again := registration.Align(src1, dst, cfg)
	if again.FineNormals != 0 {
		t.Errorf("second alignment of the same pair estimated %d new normals", again.FineNormals)
	}
	if !sameICP(again.ICP, first.ICP) {
		t.Errorf("second alignment of the same pair differs from the first")
	}
	if first.ICP.NormalTime <= 0 || first.ICP.RPCETime <= 0 {
		t.Errorf("first alignment timed its normals at %v and its RPCE at %v", first.ICP.NormalTime, first.ICP.RPCETime)
	}

	other := registration.Align(src2, dst, cfg)
	if other.FineNormals == 0 || other.FineNormals > dst.Raw.Len()-first.FineNormals {
		t.Errorf("a second source estimated %d new normals: the first left %d of %d points without one",
			other.FineNormals, dst.Raw.Len()-first.FineNormals, dst.Raw.Len())
	}
	if got := dst.FineNormals(); got != first.FineNormals+other.FineNormals {
		t.Errorf("frame holds %d normals after %d + %d estimated", got, first.FineNormals, other.FineNormals)
	}
	if want := eagerICP(src2, dst, other.Initial, cfg); !sameICP(other.ICP, want) {
		t.Errorf("second source differs from its eager reference:\n%+v\nvs\n%+v", other.ICP, want)
	}

	for name, onRaw := range map[string]func(*registration.PipelineConfig){
		"VoxelLeaf 0":   func(c *registration.PipelineConfig) { c.VoxelLeaf = 0 },
		"FrontEndOnRaw": func(c *registration.PipelineConfig) { c.FrontEndOnRaw = true },
	} {
		rawCfg := cfg
		onRaw(&rawCfg)
		s := registration.PrepareFrame(seq.Frames[1].Clone(), rawCfg)
		d := registration.PrepareFrame(seq.Frames[0].Clone(), rawCfg)
		before := d.SearchMetrics().Queries
		res := registration.Align(s, d, rawCfg)
		if res.FineNormals != 0 || res.FineTargetPoints != 0 || d.FineNormals() != 0 || d.Builds != 1 {
			t.Errorf("%s: estimated %d/%d normals, frame %d, %d index builds", name, res.FineNormals, res.FineTargetPoints, d.FineNormals(), d.Builds)
		}
		// Every query of the alignment is an RPCE nearest-neighbor query.
		stride := rawCfg.ICP.SourceStride
		perIter := int64((s.Raw.Len() + stride - 1) / stride)
		if got := d.SearchMetrics().Queries - before; got != perIter*int64(res.ICP.Iterations) {
			t.Errorf("%s: alignment issued %d queries, %d iterations of %d RPCE queries are %d",
				name, got, res.ICP.Iterations, perIter, perIter*int64(res.ICP.Iterations))
		}
	}
}

// widthLog records, per query kind, the batch width (Parallelism at the
// time of the call) of every batch a widthSearcher answered.
type widthLog struct {
	mu              sync.Mutex
	nearest, radius []int
}

// widthSearcher is the canonical searcher with its batches' widths
// written down.
type widthSearcher struct {
	search.Searcher
	log *widthLog
}

func (w *widthSearcher) NearestBatch(qs []geom.Vec3) []kdtree.Neighbor {
	w.log.mu.Lock()
	w.log.nearest = append(w.log.nearest, w.Parallelism())
	w.log.mu.Unlock()
	return w.Searcher.NearestBatch(qs)
}

func (w *widthSearcher) RadiusBatch(qs []geom.Vec3, r float64) [][]kdtree.Neighbor {
	w.log.mu.Lock()
	w.log.radius = append(w.log.radius, w.Parallelism())
	w.log.mu.Unlock()
	return w.Searcher.RadiusBatch(qs, r)
}

// TestFineNormalsRunAtAlignWidth: a frame may be built under one
// Parallelism and aligned against under another. The raw-cloud normals
// are estimated during the alignment and must run at its cap — as the
// RPCE batches do — whatever the index was built at.
func TestFineNormalsRunAtAlignWidth(t *testing.T) {
	const name = "test-registration-width-log"
	log := &widthLog{}
	if err := search.RegisterBackend(search.NewBackend(name, func(slab *cloud.Slab, opts search.Options) (search.Searcher, error) {
		inner, err := search.NewByNameSlab(search.BackendCanonical, slab, opts)
		if err != nil {
			return nil, err
		}
		return &widthSearcher{Searcher: inner, log: log}, nil
	})); err != nil {
		t.Fatal(err)
	}
	seq := fineSequence(93)
	cfg := dse.NamedDesignPoints()[4].Config // DP5
	cfg.Searcher.Backend = name

	prepCfg := cfg
	prepCfg.Searcher.Parallelism = 5
	alignCfg := cfg
	alignCfg.Searcher.Parallelism = 3

	src := registration.PrepareFrame(seq.Frames[1].Clone(), prepCfg)
	dst := registration.PrepareFrame(seq.Frames[0].Clone(), prepCfg)
	// An earlier pair built the fine index under yet another cap.
	staleCfg := cfg
	staleCfg.Searcher.Parallelism = 7
	dst.FineTarget(staleCfg)
	log.nearest, log.radius = nil, nil

	res := registration.Align(src, dst, alignCfg)
	if res.FineNormals == 0 || len(log.radius) == 0 {
		t.Fatalf("alignment estimated %d normals in %d radius batches", res.FineNormals, len(log.radius))
	}
	for kind, widths := range map[string][]int{"RPCE": log.nearest, "normal-estimation": log.radius} {
		for i, w := range widths {
			if w != 3 {
				t.Errorf("%s batch %d of the alignment ran %d wide, want the alignment's 3", kind, i, w)
			}
		}
	}
}

// TestICPRefusesPointToPlaneWithoutNormals: the exported ICP takes a
// target whose slab carries all its normals; handed one with none it
// must not fall back to point-to-point and report that as the answer.
func TestICPRefusesPointToPlaneWithoutNormals(t *testing.T) {
	seq := fineSequence(94)
	src := cloud.SlabFromCloud(seq.Frames[1])
	target := search.NewKDSearcherSlab(cloud.SlabFromCloud(seq.Frames[0]))
	cfg := registration.ICPConfig{Metric: registration.PointToPlane, MaxIterations: 3}
	defer func() {
		if recover() == nil {
			t.Error("point-to-plane ICP over a target without normals returned instead of panicking")
		}
	}()
	registration.ICP(src, target, geom.IdentityTransform(), cfg)
}
