// Micro-benchmarks of the registration hot path: one streamed frame at
// the default design point, the two fine-tuning benchmarks and the
// loop-verification benchmark CI runs, and serial/parallel pairs of the
// batched search API. The paper's figures are cmd/tigris-paper; the
// end-to-end numbers are bench/.
package tigris

import (
	"sync"
	"testing"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/features"
	"tigris/internal/geom"
	"tigris/internal/loop"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// benchData lazily generates the shared benchmark datasets: a light one
// for the serial/parallel pairs and an eval-scale one (32×600, the
// benchmark's frame size) for the fine-tuning benchmarks.
var benchData struct {
	once     sync.Once
	seq      *synth.Sequence
	onceEval sync.Once
	seqEval  *synth.Sequence
}

func benchSeq() *synth.Sequence {
	benchData.once.Do(func() {
		cfg := synth.SequenceConfig{
			Scene:     synth.SceneConfig{Seed: 2019, Length: 120},
			Lidar:     synth.LidarConfig{Beams: 24, AzimuthSteps: 450, Seed: 2019},
			NumFrames: 2,
		}
		benchData.seq = synth.GenerateSequence(cfg)
	})
	return benchData.seq
}

func benchSeqEval() *synth.Sequence {
	benchData.onceEval.Do(func() {
		benchData.seqEval = synth.GenerateSequence(synth.EvalSequenceConfig(2, 2019))
	})
	return benchData.seqEval
}

// --- Serial vs parallel batched search ----------------------------------
//
// The batched Searcher API spreads each stage's queries over a worker
// pool; these pairs measure the end-to-end and per-query-kind speedup on
// the current machine (compare the Serial/Parallel ns/op). Exact search
// results are bit-identical between the variants.

func benchmarkRegister(b *testing.B, parallelism int) {
	seq := benchSeq()
	cfg := dse.DP4().Config
	cfg.Searcher.Parallelism = parallelism
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := registration.Register(seq.Frames[1], seq.Frames[0], cfg)
		if res.Stage.Total() <= 0 {
			b.Fatal("per-stage StageTimes not populated")
		}
	}
}

// BenchmarkRegisterSerial pins every search batch to one worker.
func BenchmarkRegisterSerial(b *testing.B) { benchmarkRegister(b, 1) }

// BenchmarkRegisterParallel uses one worker per CPU (the default).
func BenchmarkRegisterParallel(b *testing.B) { benchmarkRegister(b, 0) }

// processCPU returns the process's user plus system CPU time so far, where
// the platform reports it (rusage_test.go), and is nil elsewhere.
var processCPU func() time.Duration

// BenchmarkFrameDP5 times one streamed frame at the default design point
// (DP5, 32×600 frames, one worker): the frame's front-end (PrepareFrame)
// and its alignment onto the previous frame, whose front-end is prepared
// off the clock, as the stream prepared it a frame earlier. cpu_ms/op is
// the process's CPU time per frame, which a neighbour taking the
// machine's cores does not inflate as it does ns/op.
func BenchmarkFrameDP5(b *testing.B) {
	if processCPU == nil {
		b.Skip("no process CPU clock on this platform")
	}
	seq := benchSeqEval()
	cfg := DefaultPipelineConfig()
	cfg.Searcher.Parallelism = 1
	var cpu time.Duration
	var res registration.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
		frame := seq.Frames[1].Clone()
		before := processCPU()
		b.StartTimer()
		src := registration.PrepareFrame(frame, cfg)
		res = registration.Align(src, dst, cfg)
		b.StopTimer()
		cpu += processCPU() - before
		src.Release()
		dst.Release()
		b.StartTimer()
	}
	if res.Stage.Total() <= 0 {
		b.Fatal("per-stage StageTimes not populated")
	}
	b.ReportMetric(cpu.Seconds()*1e3/float64(b.N), "cpu_ms/op")
}

// BenchmarkAlignFirst times what a streamed frame's alignment pays at
// the default design point (DP5, 32×600 frames, one worker): the target's
// raw-cloud index build, the raw normals its ICP matches name, and the
// pair stages. targets_touched is the share of the target's raw points
// whose normal had to be estimated.
func BenchmarkAlignFirst(b *testing.B) {
	seq := benchSeqEval()
	cfg := DefaultPipelineConfig()
	cfg.Searcher.Parallelism = 1
	src := registration.PrepareFrame(seq.Frames[1].Clone(), cfg)
	var res registration.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
		b.StartTimer()
		res = registration.Align(src, dst, cfg)
		b.StopTimer()
		dst.Release()
		b.StartTimer()
	}
	if res.FineTargetPoints == 0 {
		b.Fatal("DP5 did not take the on-demand normals path")
	}
	b.ReportMetric(float64(res.FineNormals)/float64(res.FineTargetPoints), "targets_touched")
}

// BenchmarkEstimateNormalsRaw times the per-point normal kernel where
// fine-tuning runs it: AreaWeighted normals (DP5's configuration) for
// every point of a raw 32×600 frame, one worker, over the index
// fine-tuning builds for that frame (the default backend).
func BenchmarkEstimateNormalsRaw(b *testing.B) {
	slab := cloud.SlabFromCloud(benchSeqEval().Frames[0])
	cfg := DefaultPipelineConfig()
	cfg.Searcher.Parallelism = 1
	s, err := search.NewByNameSlab(cfg.Searcher.BackendName(), slab, cfg.Searcher.BackendOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.EstimateNormals(slab, s, cfg.Normal)
	}
}

// BenchmarkLoopVerify times one loop verification as slam_circuit pays
// it: DP7, 16×300 frames on the radius-3 circuit of 40 frames a lap, one
// worker, the frames' front-ends already retained by the detector — so an
// iteration is one raw-cloud index over the older frame, its normals on
// demand, KPCE, rejection and ICP. "accepted" is frame 40 against frame 0
// (the same pose a lap later); "rejected" is frame 40 against frame 20,
// across the circuit, a candidate without feature consensus that is
// declined once ICP has not converged within the loose-fit budget of 5
// iterations.
func BenchmarkLoopVerify(b *testing.B) {
	seqCfg := synth.QuickSequenceConfig(41, 2019)
	seqCfg.Trajectory = synth.CircuitTrajectory{Radius: 3, FramesPerLap: 40}
	seq := synth.GenerateSequence(seqCfg)
	cfg := dse.DP7().Config
	cfg.Searcher.Parallelism = 1
	det, err := loop.NewDetector(loop.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, i := range []int{0, 20, 40} {
		pf := registration.PrepareFrame(seq.Frames[i], cfg)
		det.Observe(i, pf)
		pf.Release()
	}
	for _, c := range []struct {
		name   string
		cand   loop.Candidate
		accept bool
	}{
		{"accepted", loop.Candidate{From: 40, To: 0}, true},
		{"rejected", loop.Candidate{From: 40, To: 20}, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := det.Verify(c.cand, cfg); ok != c.accept {
					b.Fatalf("Verify(%+v) accepted = %v, want %v", c.cand, ok, c.accept)
				}
			}
		})
	}
}

// searchBench lazily builds the shared micro-benchmark data: a KD-tree
// over frame 0 and the full frame-1 point set as the query batch.
var searchBench struct {
	once    sync.Once
	target  []geom.Vec3
	queries []geom.Vec3
}

func searchBenchData() ([]geom.Vec3, []geom.Vec3) {
	searchBench.once.Do(func() {
		seq := benchSeq()
		searchBench.target = seq.Frames[0].Points
		searchBench.queries = seq.Frames[1].Points
	})
	return searchBench.target, searchBench.queries
}

func benchmarkRadiusBatch(b *testing.B, parallelism int) {
	target, queries := searchBenchData()
	s := search.NewKDSearcher(target)
	s.SetParallelism(parallelism)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.RadiusBatch(queries, 0.5)
		if len(res) != len(queries) {
			b.Fatal("batch size mismatch")
		}
	}
}

// BenchmarkRadiusBatchSerial / Parallel: the NE-stage query shape.
func BenchmarkRadiusBatchSerial(b *testing.B)   { benchmarkRadiusBatch(b, 1) }
func BenchmarkRadiusBatchParallel(b *testing.B) { benchmarkRadiusBatch(b, 0) }

func benchmarkKNearestBatch(b *testing.B, parallelism int) {
	target, queries := searchBenchData()
	s := search.NewKDSearcher(target)
	s.SetParallelism(parallelism)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.KNearestBatch(queries, 10)
		if len(res) != len(queries) {
			b.Fatal("batch size mismatch")
		}
	}
}

// BenchmarkKNearestBatchSerial / Parallel: the k-NN support-region shape.
func BenchmarkKNearestBatchSerial(b *testing.B)   { benchmarkKNearestBatch(b, 1) }
func BenchmarkKNearestBatchParallel(b *testing.B) { benchmarkKNearestBatch(b, 0) }

func benchmarkNearestBatchTwoStage(b *testing.B, parallelism int) {
	target, queries := searchBenchData()
	s := search.NewTwoStageSearcher(target, search.TwoStageConfig{TopHeight: -1, Parallelism: parallelism})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.NearestBatch(queries)
		if len(res) != len(queries) {
			b.Fatal("batch size mismatch")
		}
	}
}

// BenchmarkNearestBatchTwoStageSerial / Parallel: the RPCE query shape on
// the parallelism-exposing tree.
func BenchmarkNearestBatchTwoStageSerial(b *testing.B)   { benchmarkNearestBatchTwoStage(b, 1) }
func BenchmarkNearestBatchTwoStageParallel(b *testing.B) { benchmarkNearestBatchTwoStage(b, 0) }
