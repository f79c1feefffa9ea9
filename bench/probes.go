package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tigris/internal/baseline"
	"tigris/internal/cloud"
	"tigris/internal/memstat"
	"tigris/internal/posegraph"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/stream"
	"tigris/internal/twostage"
)

// paperSpeedup is the only reference the repository holds for the
// accelerator model: the paper's Acc-2SKD speed-up over the GPU Base-KD
// at DP7 (Fig. 11). sim.paper_gap_x is the model's distance from it;
// the model is otherwise unvalidated.
const paperSpeedup = 77.2

// budgetResidualMax is the share of the client-observed push latency the
// per-layer figures may leave unexplained before the traced run is
// declared wrong: a budget that does not add up is not a budget. Its two
// sides (a push through the gateway, a frame through the in-process
// engine) are measured seconds apart on a box whose speed drifts by more
// than that now and then, so a budget that misses is measured again, up
// to budgetAttempts times in all, before the run is declared wrong: a gap
// in the program stays, a slow moment of the box does not.
const (
	budgetResidualMax = 0.15
	budgetAttempts    = 3
)

// probeReps is how many times each stream replay and the accelerator
// model's reference evaluation run, and solveReps each pose-graph solve;
// all report the median.
const (
	probeReps = 3
	solveReps = 5
)

// runTraced is the traced run. It first runs the workload itself with a
// span around every call into the program, and again without, which
// gives the tracing overhead and the runtime counters. It then probes
// every layer on the workload's own leading frames — each layer called
// directly through its public functions, one span per call — and
// derives the per-layer metrics from those spans and from the counters
// the public result structs expose. The spans are written out as Chrome
// trace-event JSON when the run ends.
func runTraced(e *env, o runOptions, ms metricSet) (*report, error) {
	rep := &report{}
	tr := newTracer()
	p := &prober{e: e, tr: tr, ms: ms, rep: rep}
	p.n = min(e.sc.probeFrames, len(e.seq.Frames))

	traced, err := p.workloadPasses(time.Duration(o.seconds * float64(time.Second) / 6))
	if err != nil {
		return nil, err
	}
	if e.encoded == nil {
		if e.scenes[0].encoded, err = encodeFrames(e.seq.Frames[:p.n]); err != nil {
			return nil, err
		}
		e.use(0)
	}
	steps := []func() error{
		p.cloudProbe, p.registrationProbe, p.streamProbe, p.searchProbe,
		func() error { return p.loopProbe(traced) },
		p.serveProbe, p.accelProbe,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	// Held to account where serving is the workload (and the frames are
	// big enough that a push is not scheduling noise); elsewhere the table
	// is information.
	held := e.w.serves && e.sc.accountable
	share := p.budget()
	for attempt := 1; held && share > budgetResidualMax; attempt++ {
		if attempt == budgetAttempts {
			rep.problem("latency budget leaves %.0f %% of the client-observed push unexplained (limit %.0f %%)", share*100, budgetResidualMax*100)
			break
		}
		rep.note("latency budget off by %.0f %% (limit %.0f %%): measuring both sides again", share*100, budgetResidualMax*100)
		if err := p.streamProbe(); err != nil {
			return nil, err
		}
		if err := p.serveProbe(); err != nil {
			return nil, err
		}
		share = p.budget()
	}

	path := o.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "trace-"+e.w.name+".json")
	}
	meta := map[string]any{"tool": "bench", "workload": e.w.name, "seed": o.seed, "scale": o.scale.name}
	if err := tr.write(path, meta); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.note("wrote %d spans to %s", len(tr.events), path)
	p.printSelfTimes()
	return rep, nil
}

// prober carries what the probes share.
type prober struct {
	e   *env
	tr  *tracer
	ms  metricSet
	rep *report
	// n is how many leading frames the probes use.
	n int
	// Figures later probes and the budget need from earlier ones.
	prepareMs, alignFirstMs, frameMs, serveOverheadMs float64
}

// probe runs fn as a root span, so every span a probe records hangs off
// one named parent in the trace.
func (p *prober) probe(name string, fn func(parent uint64) error) error {
	var err error
	p.tr.span(name, -1, 0, func(id uint64) { err = fn(id) })
	return err
}

func medMs(ds []time.Duration) float64 { return msOf(medianDuration(ds)) }

// workloadPasses runs the workload for about `budget` with tracing on
// and for the same number of passes with tracing off. It reports the
// runtime counters of the traced passes and the tracing overhead, and
// returns the first traced pass.
func (p *prober) workloadPasses(budget time.Duration) (passResult, error) {
	e := p.e
	run := func(tr *tracer, passes int, until time.Duration) (first passResult, ops int, wall time.Duration, done int, err error) {
		start := time.Now()
		for done = 0; (passes > 0 && done < passes) || (passes == 0 && (done == 0 || time.Since(start) < until)); done++ {
			e.use(done)
			e.fresh = cloneFrames(e.seq.Frames)
			runtime.GC()
			r, err := e.w.pass(e, tr)
			e.use(0)
			if err != nil {
				return first, ops, wall, done, err
			}
			if done == 0 {
				first = r
			}
			ops += r.ops
			wall += r.wall
			p.rep.attempted += r.ops
			p.rep.failed += r.failed
			p.rep.problems = append(p.rep.problems, r.problems...)
		}
		return first, ops, wall, done, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	first, ops, wall, passes, err := run(p.tr, 0, budget)
	if err != nil {
		return first, err
	}
	runtime.ReadMemStats(&m1)
	_, plainOps, plainWall, _, err := run(nil, passes, 0)
	if err != nil {
		return first, err
	}
	p.ms["runtime.allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	// Collections the runtime chose to run; the one forced before each
	// pass is the harness's.
	p.ms["runtime.gc_cycles"] = float64((m1.NumGC - m0.NumGC) - (m1.NumForcedGC - m0.NumForcedGC))
	p.ms["runtime.gc_pause_ms_total"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	p.ms["runtime.heap_inuse_mb"] = float64(m1.HeapInuse) / 1e6
	p.ms["runtime.peak_rss_mb"] = float64(memstat.PeakRSSBytes()) / 1e6
	tracedRate := float64(ops) / wall.Seconds()
	plainRate := float64(plainOps) / plainWall.Seconds()
	p.ms["trace.overhead_pct"] = (plainRate - tracedRate) / plainRate * 100
	p.rep.note("workload under trace: %d passes, %.3f ops/s traced, %.3f ops/s untraced", passes, tracedRate, plainRate)
	return first, nil
}

// cloudProbe times the ingest path of each probe frame: ASCII parse,
// AoS to slab, voxel downsample.
func (p *prober) cloudProbe() error {
	return p.probe("probe.cloud", func(parent uint64) error {
		var read, slab, voxel []time.Duration
		var bytesIn, pointsIn, pointsVoxel float64
		leaf := p.e.cfg.VoxelLeaf
		for i := 0; i < p.n; i++ {
			var c *cloud.Cloud
			var err error
			_, d := p.tr.span("cloud.Read", i, parent, func(uint64) { c, err = cloud.Read(bytes.NewReader(p.e.encoded[i])) })
			if err != nil {
				return fmt.Errorf("read frame %d: %w", i, err)
			}
			read = append(read, d)
			var s, v *cloud.Slab
			_, d = p.tr.span("cloud.SlabFromCloud", i, parent, func(uint64) { s = cloud.SlabFromCloud(c) })
			slab = append(slab, d)
			_, d = p.tr.span("cloud.VoxelDownsampleSlab", i, parent, func(uint64) { v = cloud.VoxelDownsampleSlab(s, leaf) })
			voxel = append(voxel, d)
			bytesIn += float64(len(p.e.encoded[i]))
			pointsIn += float64(s.Len())
			pointsVoxel += float64(v.Len())
		}
		n := float64(p.n)
		p.ms["cloud.read_ms"] = medMs(read)
		p.ms["cloud.frame_bytes"] = bytesIn / n
		p.ms["cloud.read_mb_per_s"] = bytesIn / n / 1e6 / medianDuration(read).Seconds()
		p.ms["cloud.to_slab_ms"] = medMs(slab)
		p.ms["cloud.voxel_ms"] = medMs(voxel)
		p.ms["cloud.points_in"] = pointsIn / n
		p.ms["cloud.points_voxel"] = pointsVoxel / n
		return nil
	})
}

// registrationProbe prepares every probe frame once and aligns each
// consecutive pair twice: the first alignment pays for the target's
// lazily built raw-cloud index (and its normals), the second does not.
func (p *prober) registrationProbe() error {
	return p.probe("probe.registration", func(parent uint64) error {
		cfg := p.e.cfg
		var prep, normals, keypoints, descriptors []time.Duration
		var first, warm, kpce, rejection, icp []time.Duration
		var nKeypoints, iterations, inlierRatio float64
		frames := make([]*registration.PreparedFrame, p.n)
		for i := range frames {
			s := cloud.SlabFromCloud(p.e.seq.Frames[i])
			_, d := p.tr.span("registration.PrepareFrameSlab", i, parent, func(uint64) { frames[i] = registration.PrepareFrameSlab(s, cfg) })
			prep = append(prep, d)
			normals = append(normals, frames[i].NormalTime)
			keypoints = append(keypoints, frames[i].KeypointTime)
			descriptors = append(descriptors, frames[i].DescriptorTime)
			nKeypoints += float64(len(frames[i].Keypoints))
		}
		for i := 1; i < p.n; i++ {
			var res registration.Result
			_, d := p.tr.span("registration.Align:first", i, parent, func(uint64) { res = registration.Align(frames[i], frames[i-1], cfg) })
			first = append(first, d)
			kpce = append(kpce, res.Stage.KPCE)
			rejection = append(rejection, res.Stage.Rejection)
			icp = append(icp, res.Stage.RPCE+res.Stage.ErrorMinimization)
			iterations += float64(res.ICP.Iterations)
			if res.Correspondences > 0 {
				inlierRatio += float64(res.Inliers) / float64(res.Correspondences)
			}
			_, d = p.tr.span("registration.Align:warm", i, parent, func(uint64) { registration.Align(frames[i], frames[i-1], cfg) })
			warm = append(warm, d)
		}
		for _, f := range frames {
			f.Release()
		}
		pairs := float64(p.n - 1)
		p.prepareMs, p.alignFirstMs = medMs(prep), medMs(first)
		p.ms["registration.prepare_ms"] = p.prepareMs
		p.ms["registration.align_first_ms"] = p.alignFirstMs
		p.ms["registration.align_warm_ms"] = medMs(warm)
		p.ms["registration.kpce_ms"] = medMs(kpce)
		p.ms["registration.rejection_ms"] = medMs(rejection)
		p.ms["registration.icp_ms"] = medMs(icp)
		p.ms["registration.icp_iterations"] = iterations / pairs
		p.ms["registration.inlier_ratio"] = inlierRatio / pairs
		p.ms["features.normals_ms"] = medMs(normals)
		p.ms["features.keypoints_ms"] = medMs(keypoints)
		p.ms["features.descriptors_ms"] = medMs(descriptors)
		p.ms["features.keypoints"] = nKeypoints / float64(p.n)
		return nil
	})
}

// streamProbe runs the odometry engine over the probe frames three ways:
// pipelined with one frame in flight (what a ?wait=1 client gets),
// unpipelined, and pipelined back to back.
func (p *prober) streamProbe() error {
	return p.probe("probe.stream", func(parent uint64) error {
		e := p.e
		frames := e.seq.Frames[:p.n]

		var perFrame []time.Duration
		eng := stream.New(odometryConfig(e, e.par, true))
		for i, c := range cloneFrames(frames) {
			var err error
			_, d := p.tr.span("stream.Push+Drain", i, parent, func(uint64) {
				if _, err = eng.Push(c); err == nil {
					eng.Drain()
				}
			})
			if err != nil {
				eng.Close()
				return err
			}
			if i > 0 {
				perFrame = append(perFrame, d)
			}
		}
		eng.Close()
		p.frameMs = medMs(perFrame)

		unpipelined, err := odometryOver(e, cloneFrames(frames), e.par, false, p.tr, parent)
		if err != nil {
			return err
		}
		out, err := runStream(cloneFrames(frames), odometryConfig(e, e.par, true), p.tr, parent)
		if err != nil {
			return err
		}
		pipelined := e.scoreStream(out, len(frames))
		unRate := float64(unpipelined.ops) / unpipelined.wall.Seconds()
		p.ms["stream.frame_ms"] = p.frameMs
		p.ms["stream.push_block_ms"] = medMs(out.pushBlock)
		p.ms["stream.unpipelined_frames_per_s"] = unRate
		p.ms["stream.pipeline_overlap_x"] = float64(pipelined.ops) / pipelined.wall.Seconds() / unRate
		p.ms["stream.residual_ms"] = p.frameMs - p.prepareMs - p.alignFirstMs
		p.ms["registration.trans_err_pct"] = pipelined.errs.MeanTranslationalPct
		p.ms["registration.misaligned_frames"] = float64(pipelined.failed)
		return nil
	})
}

// searchProbe replays the captured stream on the software backends:
// exact against approximate, one worker against P, build beside query,
// and the part of the stream one streamed frame pays for.
func (p *prober) searchProbe() error {
	return p.probe("probe.search", func(parent uint64) error {
		st := p.e.stream
		// best keeps, of probeReps replays, the one with the median
		// query wall.
		best := func(backend string, par int, batches, slabs []int, keepNN bool) (replayOut, error) {
			outs := make([]replayOut, 0, probeReps)
			for r := 0; r < probeReps; r++ {
				out, err := replay(st, backend, par, batches, slabs, keepNN, p.tr, parent)
				if err != nil {
					return out, err
				}
				outs = append(outs, out)
			}
			sort.Slice(outs, func(i, j int) bool { return outs[i].queryWall < outs[j].queryWall })
			mid := outs[len(outs)/2]
			builds := make([]time.Duration, len(outs))
			for i, o := range outs {
				builds[i] = o.buildWall
			}
			mid.buildWall = medianDuration(builds)
			return mid, nil
		}
		perBuildMs := func(o replayOut) float64 { return msOf(o.buildWall) / float64(o.builds) }
		nodesPerQuery := func(o replayOut) float64 { return float64(o.metrics.NodesVisited) / float64(o.metrics.Queries) }

		canon, err := best(search.BackendCanonical, 1, nil, nil, false)
		if err != nil {
			return err
		}
		canonP, err := best(search.BackendCanonical, p.e.par, nil, nil, false)
		if err != nil {
			return err
		}
		two, err := best(search.BackendTwoStage, 1, nil, nil, true)
		if err != nil {
			return err
		}
		approx, err := best(search.BackendTwoStageApprox, 1, nil, nil, true)
		if err != nil {
			return err
		}
		frame, err := best(search.BackendCanonical, p.e.par, st.frameBatches, st.frameSlabs, false)
		if err != nil {
			return err
		}
		p.ms["kdtree.build_ms"] = perBuildMs(canon)
		p.ms["kdtree.nn_ns"] = canon.byKind[search.TraceNearest].nsPerQuery()
		p.ms["kdtree.radius_ns"] = canon.byKind[search.TraceRadius].nsPerQuery()
		p.ms["kdtree.nodes_per_query"] = nodesPerQuery(canon)
		p.ms["twostage.build_ms"] = perBuildMs(two)
		p.ms["twostage.nn_ns"] = two.byKind[search.TraceNearest].nsPerQuery()
		p.ms["twostage.radius_ns"] = two.byKind[search.TraceRadius].nsPerQuery()
		p.ms["twostage.nodes_per_query"] = nodesPerQuery(two)
		p.ms["twostage.approx_nn_ns"] = approx.byKind[search.TraceNearest].nsPerQuery()
		p.ms["twostage.approx_radius_ns"] = approx.byKind[search.TraceRadius].nsPerQuery()
		p.ms["twostage.approx_nodes_per_query"] = nodesPerQuery(approx)
		// Useful outcomes per attempt: of the leaf visits the counters see,
		// the share answered from a leader's results instead of a scan (a
		// query visits several leaves, so hits per query would exceed 1).
		hits, inserts := float64(approx.follower.FollowerHits), float64(approx.follower.LeaderInserts)
		p.ms["twostage.approx_follower_share"] = ratio(hits, hits+inserts)
		mismatched := 0
		for i := range two.nn {
			if i < len(approx.nn) && approx.nn[i].Dist2 != two.nn[i].Dist2 {
				mismatched++
			}
		}
		p.ms["twostage.approx_nn_mismatch_share"] = ratio(float64(mismatched), float64(len(two.nn)))
		p.ms["search.batch_speedup_x"] = canon.queryWall.Seconds() / canonP.queryWall.Seconds()
		p.ms["search.queries_per_frame"] = float64(frame.metrics.Queries)
		p.ms["search.nodes_per_frame"] = float64(frame.metrics.NodesVisited)
		p.ms["search.builds_per_frame"] = float64(frame.builds)
		p.ms["search.build_ms_per_frame"] = msOf(frame.buildWall)
		p.ms["search.replay_ms_per_frame"] = msOf(frame.queryWall)
		// The paper's Fig. 4b number: the share of a frame's compute that
		// is KD-tree build and search. Both sides run at parallelism P
		// (stream.frame_ms does not: a pipelined engine with one frame in
		// flight gives each stage half the pool).
		p.ms["search.share_of_frame"] = msOf(frame.buildWall+frame.queryWall) / (p.prepareMs + p.alignFirstMs)
		return nil
	})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loopProbe reports the loop-closure stage and the pose-graph solve over
// the probe frames. On slam_circuit that is the workload's own traced
// pass (closures need the whole circuit); elsewhere the probe frames are
// streamed through a loop-enabled engine, which observes every frame
// and, short of a lap, proposes nothing.
func (p *prober) loopProbe(traced passResult) error {
	return p.probe("probe.loop", func(parent uint64) error {
		res := traced
		if !p.e.w.loop {
			var err error
			if res, err = slamOver(p.e, cloneFrames(p.e.seq.Frames[:p.n]), p.tr, parent); err != nil {
				return err
			}
		}
		var solves []time.Duration
		for r := 0; r < solveReps; r++ {
			_, d := p.tr.span("posegraph.Optimize:probe", r, parent, func(uint64) {
				_, _, _ = res.graph.Optimize(posegraph.Options{Parallelism: p.e.par})
			})
			solves = append(solves, d)
		}
		p.ms["loop.observed"] = float64(res.loop.Observed)
		p.ms["loop.proposed"] = float64(res.loop.Proposed)
		p.ms["loop.verified"] = float64(res.loop.Verified)
		p.ms["loop.accepted"] = float64(res.loop.Accepted)
		p.ms["loop.accept_ratio"] = ratio(float64(res.loop.Accepted), float64(res.loop.Verified))
		p.ms["loop.verify_ms_total"] = msOf(res.loopTime)
		p.ms["loop.share_of_run"] = res.loopTime.Seconds() / res.wall.Seconds()
		p.ms["loop.retained_mb"] = float64(res.retainedB) / 1e6
		p.ms["posegraph.solve_ms"] = medMs(solves)
		p.ms["posegraph.iterations"] = float64(res.solve.Iterations)
		p.ms["posegraph.nodes"] = float64(len(res.graph.Poses))
		p.ms["posegraph.edges"] = float64(len(res.graph.Edges))
		p.ms["posegraph.ate_rmse_m"] = res.ate
		return nil
	})
}

// serveProbe pushes the probe frames through one worker directly and
// then through the gateway in front of two, one client each time, so
// the difference between the two is the gateway and the difference
// between a push and the pipeline time the worker reports is ingest,
// HTTP and encoding.
func (p *prober) serveProbe() error {
	return p.probe("probe.serve", func(parent uint64) error {
		e := p.e
		encoded := e.encoded[:p.n]
		single, err := startFleet(1, e.par, false)
		if err != nil {
			return err
		}
		direct, err := runSession(single.base, encoded, e, p.tr, parent)
		single.stop()
		if err != nil {
			return err
		}
		gw := e.fleet
		if gw == nil {
			if gw, err = startFleet(2, e.par, true); err != nil {
				return err
			}
			defer gw.stop()
		}
		proxied, err := runSession(gw.base, encoded, e, p.tr, parent)
		if err != nil {
			return err
		}
		// Placement: hold a few idle sessions open at once and see how the
		// gateway spread them over its workers.
		c := newClient(gw.base)
		defer c.close()
		perWorker := make(map[string]int)
		for i := 0; i < 2*len(gw.workers); i++ {
			path, worker, err := c.create(sessionConfig(e.w))
			if err != nil {
				return err
			}
			defer c.remove(path)
			perWorker[worker]++
		}
		most, least := 0, 0
		if len(perWorker) == len(gw.workers) {
			least = 2 * len(gw.workers)
		}
		for _, n := range perWorker {
			most, least = max(most, n), min(least, n)
		}
		p.rep.attempted += direct.pushed + proxied.pushed
		p.rep.failed += direct.failed + proxied.failed

		// What a push costs around the pipeline time the worker itself
		// reports, push by push, so that frame-to-frame differences in
		// compute cancel. Frame 0 has nothing to align against; the steady
		// cost is the frames after it.
		around := func(s sessionOut) []time.Duration {
			out := make([]time.Duration, 0, len(s.latency))
			for i := 1; i < len(s.latency); i++ {
				out = append(out, s.latency[i]-time.Duration(s.pipelineMs[i]*float64(time.Millisecond)))
			}
			return out
		}
		p.serveOverheadMs = medMs(around(direct))
		p.ms["serve.create_ms"] = msOf(direct.create)
		p.ms["serve.push_ms"] = medMs(tail(direct.latency))
		p.ms["serve.pipeline_ms"] = median(direct.pipelineMs[min(1, len(direct.pipelineMs)):])
		p.ms["serve.overhead_ms"] = p.serveOverheadMs
		p.ms["serve.trajectory_ms"] = msOf(direct.traj)
		p.ms["serve.trajectory_bytes"] = float64(direct.trajBytes)
		p.ms["gateway.push_ms"] = medMs(tail(proxied.latency))
		p.ms["gateway.overhead_ms"] = medMs(around(proxied)) - p.serveOverheadMs
		p.ms["gateway.create_ms"] = msOf(proxied.create)
		p.ms["gateway.trajectory_ms"] = msOf(proxied.traj)
		p.ms["gateway.worker_split"] = ratio(float64(most), float64(least))
		return nil
	})
}

// tail drops the first sample (frame 0).
func tail(ds []time.Duration) []time.Duration {
	if len(ds) < 2 {
		return ds
	}
	return ds[1:]
}

// budget is the table ROADMAP item 1 asks for: what a client of the
// gateway waits for one pose, layer by layer, and what is left over. It
// returns the share of the push left unexplained.
func (p *prober) budget() float64 {
	client := p.ms["gateway.push_ms"]
	parts := []struct {
		name string
		ms   float64
	}{
		{"gateway.overhead_ms", p.ms["gateway.overhead_ms"]},
		{"serve.overhead_ms", p.serveOverheadMs},
		{"registration.prepare_ms", p.prepareMs},
		{"registration.align_first_ms", p.alignFirstMs},
		{"stream.residual_ms", p.ms["stream.residual_ms"]},
	}
	residual := client
	p.rep.note("latency budget of one push through the gateway (?wait=1), ms:")
	for _, part := range parts {
		residual -= part.ms
		p.rep.note("  %-30s %9.3f", part.name, part.ms)
	}
	p.rep.note("  %-30s %9.3f  (of which cloud.read_ms %.3f + cloud.to_slab_ms %.3f are inside serve.overhead_ms)",
		"budget.residual_ms", residual, p.ms["cloud.read_ms"], p.ms["cloud.to_slab_ms"])
	p.rep.note("  %-30s %9.3f", "budget.client_p50_ms", client)
	share := residual / client
	if share < 0 {
		share = -share
	}
	p.ms["budget.client_p50_ms"] = client
	p.ms["budget.residual_ms"] = residual
	p.ms["budget.residual_share"] = share
	return share
}

// accelProbe evaluates the accelerator model's variants on the stream:
// Acc-2SKD (checked against the software search), the approximate
// search, the leaf-size-1 tree (Acc-KD), and the GPU and CPU device
// models. Acc-2SKD is evaluated probeReps times, each from a collected
// heap: its simulated figures must repeat exactly, and the medians of its
// host times are the simulator's own speed.
func (p *prober) accelProbe() error {
	return p.probe("probe.accel", func(parent uint64) error {
		m := newAccelModel(p.e.stream)
		var exact accelRun
		var prepWalls, simWalls, hostWalls []time.Duration
		for r := 0; r < probeReps; r++ {
			runtime.GC()
			run, err := m.simulate(m.twoTree, false, r == 0, p.tr, parent)
			if err != nil {
				return err
			}
			if r == 0 {
				exact = run
			} else if run.cycles != exact.cycles || run.energy != exact.energy {
				p.rep.problem("accelerator model is not deterministic: %d cycles, then %d", exact.cycles, run.cycles)
			}
			prepWalls = append(prepWalls, run.prepWall)
			simWalls = append(simWalls, run.simWall)
			hostWalls = append(hostWalls, run.prepWall+run.simWall)
		}
		approx, err := m.simulate(m.twoTree, true, false, p.tr, parent)
		if err != nil {
			return err
		}
		tall := make([]*twostage.Tree, len(p.e.stream.slabs))
		for i, s := range p.e.stream.slabs {
			tall[i] = twostage.BuildWithLeafSizeSlab(s, 1)
		}
		accKD, err := m.simulate(tall, false, false, p.tr, parent)
		if err != nil {
			return err
		}
		gpu := m.device(baseline.RTX2080Ti, false, p.e.par)
		gpu2s := m.device(baseline.RTX2080Ti, true, p.e.par)
		cpu := m.device(baseline.Xeon4110, false, p.e.par)
		if exact.nnWrong > 0 {
			p.rep.problem("accelerator model: %d of %d sampled NN results differ from the software search", exact.nnWrong, exact.nnSeen)
		}
		speedup := gpu.time.Seconds() / exact.time.Seconds()
		p.ms["sim.cycles"] = float64(exact.cycles)
		p.ms["sim.prepare_ms"] = medMs(prepWalls)
		p.ms["sim.simulate_ms"] = medMs(simWalls)
		p.ms["sim.host_queries_per_s"] = float64(m.queries) / medianDuration(hostWalls).Seconds()
		p.ms["sim.ru_utilization"] = exact.ruBusy / float64(exact.cycles)
		p.ms["sim.su_utilization"] = exact.suBusy / float64(exact.cycles)
		p.ms["sim.traffic_total"] = float64(exact.traffic)
		p.ms["sim.energy_mj"] = exact.energy * 1e3
		p.ms["sim.power_w"] = exact.power()
		p.ms["sim.acc_kd_speedup_x"] = gpu.time.Seconds() / accKD.time.Seconds()
		p.ms["sim.approx_speedup_x"] = exact.time.Seconds() / approx.time.Seconds()
		p.ms["sim.paper_gap_x"] = paperSpeedup / speedup
		p.ms["baseline.gpu_ms"] = msOf(gpu.time)
		p.ms["baseline.gpu_2skd_ms"] = msOf(gpu2s.time)
		p.ms["baseline.cpu_ms"] = msOf(cpu.time)
		p.rep.note("accelerator model: Acc-2SKD %.1fx over GPU Base-KD on this stream (paper: %.1fx at DP7; the model is otherwise unvalidated)", speedup, paperSpeedup)
		return nil
	})
}

// printSelfTimes lists where the traced run's time went by span name:
// each span's duration minus what its child spans cover.
func (p *prober) printSelfTimes() {
	self := p.tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	p.rep.note("self time by span (top %d):", min(12, len(names)))
	for _, name := range names[:min(12, len(names))] {
		p.rep.note("  %-34s %10.1f ms", name, msOf(self[name]))
	}
}
