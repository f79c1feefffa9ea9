// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkFigNN/BenchmarkTableNN target runs the
// corresponding experiment and reports the headline quantities as custom
// benchmark metrics, so `go test -bench=. -benchmem` prints the same rows
// the paper's figures plot. The cmd/ drivers run the same experiments at
// full scale with complete tables; benchmarks use test-scale data so the
// whole suite completes in minutes.
package tigris

import (
	"sync"
	"testing"

	"tigris/internal/baseline"
	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/features"
	"tigris/internal/kdtree"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/sim"
	"tigris/internal/synth"
	"tigris/internal/twostage"
)

// benchData lazily generates the shared benchmark datasets: a light one
// for the pipeline-heavy DSE/injection benches and an eval-scale one for
// the accelerator benches (whose claims need LiDAR-scale point density).
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

// BenchmarkFig3_DSE evaluates representative design points of the Tbl. 1
// grid (error-vs-time scatter, Fig. 3). The cmd/tigris-dse driver runs the
// full 48-point grid.
func BenchmarkFig3_DSE(b *testing.B) {
	seq := benchSeq()
	grid := dse.Grid()
	// A spread of grid corners: fastest, middle, most accurate knobs.
	picks := []int{0, len(grid) / 2, len(grid) - 1}
	for i := 0; i < b.N; i++ {
		for _, g := range picks {
			ev := dse.Evaluate(seq, grid[g])
			b.ReportMetric(ev.Error.MeanTranslationalPct, "terr_pct_"+grid[g].Name[:3])
		}
	}
}

// BenchmarkFig4a_StageBreakdown reports the per-stage shares of the
// accuracy anchor DP7 (Fig. 4a).
func BenchmarkFig4a_StageBreakdown(b *testing.B) {
	seq := benchSeq()
	for i := 0; i < b.N; i++ {
		ev := dse.Evaluate(seq, dse.DP7())
		total := float64(ev.Stage.Total())
		b.ReportMetric(100*float64(ev.Stage.NormalEstimation)/total, "NE_pct")
		b.ReportMetric(100*float64(ev.Stage.DescriptorCalculation)/total, "Desc_pct")
		b.ReportMetric(100*float64(ev.Stage.RPCE)/total, "RPCE_pct")
	}
}

// BenchmarkFig4b_KDTreeShare reports the KD-search share of total time
// for the two anchor points; the paper reports 50–85% across all DPs.
func BenchmarkFig4b_KDTreeShare(b *testing.B) {
	seq := benchSeq()
	for i := 0; i < b.N; i++ {
		ev4 := dse.Evaluate(seq, dse.DP4())
		ev7 := dse.Evaluate(seq, dse.DP7())
		b.ReportMetric(100*ev4.KDSearchFrac(), "DP4_kdsearch_pct")
		b.ReportMetric(100*ev7.KDSearchFrac(), "DP7_kdsearch_pct")
	}
}

// BenchmarkFig6_Redundancy reports the two-stage redundancy ratio at
// leaf-set sizes 8 and 32 for NN and radius search (Fig. 6a) and the
// absolute visit counts (Fig. 6b).
func BenchmarkFig6_Redundancy(b *testing.B) {
	seq := benchSeq()
	target := seq.Frames[0].Points
	queries := seq.Frames[1].Points[:len(seq.Frames[1].Points)/4]
	canon := kdtree.Build(target)
	var nnBase, radBase kdtree.Stats
	for _, q := range queries {
		canon.Nearest(q, &nnBase)
		canon.Radius(q, 0.5, &radBase)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, leaf := range []int{8, 32} {
			tree := twostage.BuildWithLeafSize(target, leaf)
			var nn, rad twostage.Stats
			for _, q := range queries {
				tree.Nearest(q, &nn)
				tree.Radius(q, 0.5, &rad)
			}
			suffix := "8"
			if leaf == 32 {
				suffix = "32"
			}
			b.ReportMetric(float64(nn.TotalVisited())/float64(nnBase.NodesVisited), "NN_redundancy_leaf"+suffix)
			b.ReportMetric(float64(rad.TotalVisited())/float64(radBase.NodesVisited), "radius_redundancy_leaf"+suffix)
		}
	}
}

// BenchmarkFig7a_KNNInjection reports end-to-end translational error with
// k-th-NN substitution in dense RPCE vs sparse KPCE (Fig. 7a).
func BenchmarkFig7a_KNNInjection(b *testing.B) {
	seq := benchSeq()
	cfg := dse.DP4().Config
	for i := 0; i < b.N; i++ {
		run := func(inj registration.Injection) float64 {
			c := cfg
			c.Inject = inj
			res := registration.Register(seq.Frames[1], seq.Frames[0], c)
			return registration.EvaluatePair(res.Transform, seq.GroundTruthDelta(0)).TranslationalPct
		}
		b.ReportMetric(run(registration.Injection{}), "terr_clean_pct")
		b.ReportMetric(run(registration.Injection{RPCEKthNN: 5}), "terr_denseK5_pct")
		// The sparse arm exposes front-end sensitivity with the robustness
		// guards disabled, as in cmd/tigris-errinj.
		sparse := cfg
		sparse.Rejection.Method = registration.RejectThreshold
		sparse.MaxInitialTranslation = -1
		sparse.MaxInitialRotation = -1
		sparse.Inject = registration.Injection{KPCEKthNN: 2}
		res := registration.Register(seq.Frames[1], seq.Frames[0], sparse)
		b.ReportMetric(registration.EvaluatePair(res.Transform, seq.GroundTruthDelta(0)).TranslationalPct, "terr_sparseK2_pct")
	}
}

// BenchmarkFig7b_ShellInjection reports translational error with the
// radius-shell substitution in Normal Estimation (Fig. 7b).
func BenchmarkFig7b_ShellInjection(b *testing.B) {
	seq := benchSeq()
	cfg := dse.DP4().Config
	for i := 0; i < b.N; i++ {
		run := func(r1 float64) float64 {
			c := cfg
			shell := [2]float64{r1, c.Normal.SearchRadius + 0.2}
			c.Inject = registration.Injection{NEShell: &shell}
			res := registration.Register(seq.Frames[1], seq.Frames[0], c)
			return registration.EvaluatePair(res.Transform, seq.GroundTruthDelta(0)).TranslationalPct
		}
		b.ReportMetric(run(0.10), "terr_shell10cm_pct")
		b.ReportMetric(run(0.25), "terr_shell25cm_pct")
	}
}

// accelWorkloads extracts the DP7 stage workloads once.
var accelWL struct {
	once     sync.Once
	wl       []sim.Workload
	canon    *kdtree.Tree
	twoStage *twostage.Tree
}

func benchAccelSetup() {
	accelWL.once.Do(func() {
		seq := benchSeqEval()
		accelWL.wl = dse.StageWorkloads(seq, dse.DP7())
		accelWL.canon = kdtree.Build(seq.Frames[0].Points)
		// 128-point leaf sets: the paper's height-10 configuration at its
		// 130k-point frame size, scaled to ours.
		accelWL.twoStage = twostage.BuildWithLeafSize(seq.Frames[0].Points, 128)
	})
}

func accelRun(b *testing.B, cfg sim.Config, approx bool) (secs float64, energy float64) {
	for _, w := range accelWL.wl {
		c := cfg
		if approx {
			c.Approx = twostage.DefaultNNThreshold
			if w.Kind == sim.RadiusSearch {
				c.ApproxRadiusFrac = twostage.DefaultRadiusThresholdFrac
			}
		}
		rep, err := sim.Run(accelWL.twoStage, w, c)
		if err != nil {
			b.Fatal(err)
		}
		secs += rep.Time.Seconds()
		energy += rep.Energy.Total()
	}
	return secs, energy
}

// BenchmarkFig11_SpeedupPower reports KD-tree search speedup and power
// reduction of Acc-2SKD over the GPU Base-KD baseline (Fig. 11a/11b).
func BenchmarkFig11_SpeedupPower(b *testing.B) {
	benchAccelSetup()
	for i := 0; i < b.N; i++ {
		var gpuSecs, gpuEnergy float64
		for _, w := range accelWL.wl {
			p := baseline.ProfileCanonical(accelWL.canon, w)
			gpuSecs += baseline.RTX2080Ti.Time(p).Seconds()
			gpuEnergy += baseline.RTX2080Ti.Energy(p)
		}
		accSecs, accEnergy := accelRun(b, sim.DefaultConfig(), false)
		b.ReportMetric(gpuSecs/accSecs, "speedup_vs_BaseKD_x")
		b.ReportMetric((gpuEnergy/gpuSecs)/(accEnergy/accSecs), "power_reduction_x")
	}
}

// BenchmarkFig11_EndToEnd estimates the end-to-end registration speedup
// when KD-tree search is accelerated, with the §6.3 methodology: the
// measured KD-search share of registration time shrinks by the modeled
// accelerator-vs-GPU speedup while the rest of the pipeline is unchanged:
// improvement = share × (1 − t_acc/t_gpu). The paper reports 41.7% on DP7.
func BenchmarkFig11_EndToEnd(b *testing.B) {
	seq := benchSeq()
	benchAccelSetup()
	for i := 0; i < b.N; i++ {
		ev := dse.Evaluate(seq, dse.DP7())
		accSecs, _ := accelRun(b, sim.DefaultConfig(), false)
		var gpuSecs float64
		for _, w := range accelWL.wl {
			p := baseline.ProfileCanonical(accelWL.canon, w)
			gpuSecs += baseline.RTX2080Ti.Time(p).Seconds()
		}
		share := ev.KDSearchFrac()
		b.ReportMetric(100*share*(1-accSecs/gpuSecs), "e2e_improvement_pct")
	}
}

// BenchmarkApproxSearch reports the §6.3 approximate-search gains: node
// visit reduction and speedup over exact Acc-2SKD.
func BenchmarkApproxSearch(b *testing.B) {
	benchAccelSetup()
	for i := 0; i < b.N; i++ {
		exactSecs, _ := accelRun(b, sim.DefaultConfig(), false)
		apxSecs, _ := accelRun(b, sim.DefaultConfig(), true)
		var exactOps, apxOps int64
		for _, w := range accelWL.wl {
			repE, _ := sim.Run(accelWL.twoStage, w, sim.DefaultConfig())
			ca := sim.DefaultConfig()
			ca.Approx = twostage.DefaultNNThreshold
			if w.Kind == sim.RadiusSearch {
				ca.ApproxRadiusFrac = twostage.DefaultRadiusThresholdFrac
			}
			repA, _ := sim.Run(accelWL.twoStage, w, ca)
			exactOps += repE.Counts.PEDistanceOps
			apxOps += repA.Counts.PEDistanceOps
		}
		b.ReportMetric(100*(1-float64(apxOps)/float64(exactOps)), "op_reduction_pct")
		b.ReportMetric(exactSecs/apxSecs, "speedup_x")
	}
}

// BenchmarkFig12_Ablation reports the RU/issue optimization ablation
// (No-Opt, Bypass, +Forward, MQMN) as speedups over No-Opt.
func BenchmarkFig12_Ablation(b *testing.B) {
	benchAccelSetup()
	for i := 0; i < b.N; i++ {
		mk := func(fwd, byp bool, issue sim.IssuePolicy) float64 {
			cfg := sim.DefaultConfig()
			cfg.Forwarding = fwd
			cfg.Bypassing = byp
			cfg.Issue = issue
			secs, _ := accelRun(b, cfg, false)
			return secs
		}
		noOpt := mk(false, false, sim.MQSN)
		b.ReportMetric(noOpt/mk(false, true, sim.MQSN), "bypass_speedup_x")
		b.ReportMetric(noOpt/mk(true, true, sim.MQSN), "forward_speedup_x")
		b.ReportMetric(noOpt/mk(true, true, sim.MQMN), "mqmn_speedup_x")
	}
}

// BenchmarkFig13_Traffic reports the memory traffic split of Acc-2SKD
// (Fig. 13): Points Buffer share with the node cache active.
func BenchmarkFig13_Traffic(b *testing.B) {
	benchAccelSetup()
	for i := 0; i < b.N; i++ {
		var with, without sim.Traffic
		for _, w := range accelWL.wl {
			rep, _ := sim.Run(accelWL.twoStage, w, sim.DefaultConfig())
			with.PointsBuf += rep.Traffic.PointsBuf
			with.NodeCache += rep.Traffic.NodeCache
			cfg := sim.DefaultConfig()
			cfg.NodeCacheSets = 0
			rep2, _ := sim.Run(accelWL.twoStage, w, cfg)
			without.PointsBuf += rep2.Traffic.PointsBuf
		}
		b.ReportMetric(float64(with.PointsBuf)/float64(without.PointsBuf), "pointsbuf_traffic_ratio")
	}
}

// BenchmarkFig14_Sensitivity sweeps the RU count (the Fig. 14 bottleneck
// dimension) and reports search time for 16 vs 64 RUs.
func BenchmarkFig14_Sensitivity(b *testing.B) {
	benchAccelSetup()
	for i := 0; i < b.N; i++ {
		for _, ru := range []int{16, 64, 128} {
			cfg := sim.DefaultConfig()
			cfg.NumRU = ru
			secs, _ := accelRun(b, cfg, false)
			switch ru {
			case 16:
				b.ReportMetric(secs*1e3, "time_16RU_ms")
			case 64:
				b.ReportMetric(secs*1e3, "time_64RU_ms")
			default:
				b.ReportMetric(secs*1e3, "time_128RU_ms")
			}
		}
	}
}

// BenchmarkFig15_TopTreeHeight reports search time at three top-tree
// heights, exposing the Fig. 15 U-shape.
func BenchmarkFig15_TopTreeHeight(b *testing.B) {
	benchAccelSetup()
	seq := benchSeq()
	pts := seq.Frames[0].Points
	for i := 0; i < b.N; i++ {
		for _, h := range []int{4, 10, 15} {
			tree := twostage.Build(pts, h)
			var secs float64
			for _, w := range accelWL.wl {
				rep, err := sim.Run(tree, w, sim.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				secs += rep.Time.Seconds()
			}
			switch h {
			case 4:
				b.ReportMetric(secs*1e3, "time_h4_ms")
			case 10:
				b.ReportMetric(secs*1e3, "time_h10_ms")
			default:
				b.ReportMetric(secs*1e3, "time_h15_ms")
			}
		}
	}
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
// every point of a raw 32×600 frame, one worker.
func BenchmarkEstimateNormalsRaw(b *testing.B) {
	slab := cloud.SlabFromCloud(benchSeqEval().Frames[0])
	s := search.NewKDSearcherSlabPar(slab, 1)
	cfg := DefaultPipelineConfig().Normal
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.EstimateNormals(slab, s, cfg)
	}
}

// searchBench lazily builds the shared micro-benchmark data: a KD-tree
// over frame 0 and the full frame-1 point set as the query batch.
var searchBench struct {
	once    sync.Once
	target  []Vec3
	queries []Vec3
}

func searchBenchData() ([]Vec3, []Vec3) {
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

// BenchmarkTableArea reports the §6.2 area model outputs.
func BenchmarkTableArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		area := cfg.EstimateArea()
		b.ReportMetric(area.SRAMmm2, "sram_mm2")
		b.ReportMetric(area.LogicMm2, "logic_mm2")
		b.ReportMetric(100*area.SRAMmm2/area.Total(), "sram_pct")
	}
}

// BenchmarkEnergyBreakdown reports the §6.3 energy component shares of
// Acc-2SKD on the DP7 workloads.
func BenchmarkEnergyBreakdown(b *testing.B) {
	benchAccelSetup()
	for i := 0; i < b.N; i++ {
		var e sim.Energy
		for _, w := range accelWL.wl {
			rep, err := sim.Run(accelWL.twoStage, w, sim.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			e.PE += rep.Energy.PE
			e.SRAMRead += rep.Energy.SRAMRead
			e.SRAMWrite += rep.Energy.SRAMWrite
			e.Leakage += rep.Energy.Leakage
			e.DRAM += rep.Energy.DRAM
		}
		total := e.Total()
		b.ReportMetric(100*e.PE/total, "PE_pct")
		b.ReportMetric(100*e.SRAMRead/total, "sram_read_pct")
		b.ReportMetric(100*e.SRAMWrite/total, "sram_write_pct")
		b.ReportMetric(100*e.Leakage/total, "leakage_pct")
		b.ReportMetric(100*e.DRAM/total, "dram_pct")
	}
}
