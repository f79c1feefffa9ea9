package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"tigris/internal/cloud"
	"tigris/internal/geom"
	"tigris/internal/loop"
	"tigris/internal/memstat"
	"tigris/internal/posegraph"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/stream"
	"tigris/internal/synth"
)

// misalignedPct is the translational error above which a registered
// frame counts as failed: the program returned a pose, but a wrong one.
const misalignedPct = 10

// passResult is what one pass over a workload's inputs produced.
type passResult struct {
	// ops is the number of operations attempted (frames; query batches
	// on search_accel); failed how many of them failed or were wrong.
	ops, failed int
	wall        time.Duration
	// latency holds one sample per operation.
	latency []time.Duration
	// digest fingerprints the program's outputs. Every pass of a run
	// sees the same inputs, so every pass must produce the same digest.
	digest string
	// search and builds are the program's own search counters for the
	// pass (zero where the pass measures search from outside).
	search search.Metrics
	builds int64
	// Accuracy and SLAM outputs, reported per layer by the traced run.
	errs      registration.SequenceError
	poses     []geom.Transform
	loop      loop.Stats
	loopTime  time.Duration
	ate       float64
	solve     posegraph.Result
	graph     *posegraph.Graph
	problems  []string
	retainedB uint64
}

// streamOut is one engine session's outputs.
type streamOut struct {
	traj      stream.Trajectory
	closures  []loop.Closure
	stats     stream.Stats
	wall      time.Duration
	pushBlock []time.Duration
	retainedB uint64
}

// runStream pushes the frames back to back through a fresh engine and
// waits for the last pose: one closed-loop caller. The engine takes
// ownership of what it is pushed, so callers hand over clones.
func runStream(clones []*cloud.Cloud, cfg stream.Config, tr *tracer, parent uint64) (streamOut, error) {
	var out streamOut
	// Retained-state accounting forces collections, so only the traced
	// run (which reports it) pays for it.
	var before uint64
	if tr != nil {
		before = heapInuseAfterGC()
	}
	start := time.Now()
	eng := stream.New(cfg)
	defer eng.Close()
	for i, c := range clones {
		var err error
		_, d := tr.span("stream.Push", i, parent, func(uint64) { _, err = eng.Push(c) })
		if err != nil {
			return out, fmt.Errorf("push frame %d: %w", i, err)
		}
		out.pushBlock = append(out.pushBlock, d)
	}
	tr.span("stream.Drain", len(clones), parent, func(uint64) { eng.Drain() })
	out.wall = time.Since(start)
	if tr != nil {
		// What the session still holds once the stream is over (the
		// loop stage retains every frame for later verification).
		if after := heapInuseAfterGC(); after > before {
			out.retainedB = after - before
		}
	}
	out.traj = eng.Trajectory()
	out.closures = eng.Closures()
	eng.Close()
	out.stats = eng.Stats()
	return out, nil
}

// heapInuseAfterGC is the live heap, near enough: in-use spans right
// after a forced collection.
func heapInuseAfterGC() uint64 {
	runtime.GC()
	return memstat.HeapInuseBytes()
}

// frameErrors scores the registered deltas against the generator's
// ground truth, KITTI style.
func frameErrors(traj stream.Trajectory, seq *synth.Sequence) []registration.FrameError {
	errs := make([]registration.FrameError, 0, traj.Len())
	for i := 1; i < traj.Len(); i++ {
		errs = append(errs, registration.EvaluatePair(traj.Frames[i].Delta, seq.GroundTruthDelta(i-1)))
	}
	return errs
}

// countMisaligned counts the frames whose pose is wrong. On the circuit
// a frame moves ~0.4 m, so the KITTI percentage is dominated by
// centimetres of noise and says nothing; there a frame fails only by
// being missing, and wrong output shows as ATE and lost closures.
func (e *env) countMisaligned(errs []registration.FrameError) int {
	if e.w.loop {
		return 0
	}
	n := 0
	for _, fe := range errs {
		if !(fe.TranslationalPct <= misalignedPct) {
			n++
		}
	}
	return n
}

// poseDigest hashes the exact bit patterns of a trajectory, so "the
// same poses" means bit-identical, not close.
func poseDigest(poses []geom.Transform) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range poses {
		for _, v := range p.R {
			put(v)
		}
		put(p.T.X)
		put(p.T.Y)
		put(p.T.Z)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// frameLatencies is the engine's own per-frame record of front-end
// start to pose: PrepTime + AlignTime, exact durations, one per frame.
func frameLatencies(traj stream.Trajectory) []time.Duration {
	out := make([]time.Duration, 0, traj.Len())
	for _, fr := range traj.Frames {
		out = append(out, fr.PrepTime+fr.AlignTime)
	}
	return out
}

// odometryPass is odometry_dense: the pipelined engine, loop closure
// off, frames pushed back to back by one caller.
func odometryPass(e *env, tr *tracer) (passResult, error) {
	return odometryOver(e, e.takeFresh(), e.par, true, tr, 0)
}

// odometryOver runs the odometry engine over (clones of) a prefix of the
// sequence at the given parallelism; the workload, the determinism gate
// and the stream probes all go through it.
func odometryOver(e *env, frames []*cloud.Cloud, par int, pipelined bool, tr *tracer, parent uint64) (passResult, error) {
	out, err := runStream(frames, odometryConfig(e, par, pipelined), tr, parent)
	if err != nil {
		return passResult{}, err
	}
	return e.scoreStream(out, len(frames)), nil
}

// odometryConfig is the engine configuration of the odometry workloads:
// the workload's design point, loop closure off.
func odometryConfig(e *env, par int, pipelined bool) stream.Config {
	cfg := e.cfg
	cfg.Searcher.Parallelism = par
	return stream.Config{Pipeline: cfg, Pipelined: pipelined}
}

// scoreStream turns an engine session's outputs into a pass result: a
// frame fails when it is missing from the trajectory or its pose is
// wrong.
func (e *env) scoreStream(out streamOut, pushed int) passResult {
	errs := frameErrors(out.traj, e.seq)
	return passResult{
		ops:     pushed,
		failed:  pushed - out.traj.Len() + e.countMisaligned(errs),
		wall:    out.wall,
		latency: frameLatencies(out.traj),
		digest:  poseDigest(out.traj.Poses),
		search:  out.stats.Search,
		builds:  out.stats.TreeBuilds,
		errs:    registration.Aggregate(errs),
		poses:   out.traj.Poses,
	}
}

// Drift injected into the measured odometry before the graph is built,
// exactly as cmd/tigris-slam does: pairwise odometry drifts without
// bound, and a short synthetic circuit needs help to show it.
const (
	driftYawDeg = 0.6
	driftScale  = 1.06
)

// slamPass is slam_circuit: the engine with the loop-closure stage on
// over a closed circuit, then the drifted pose graph optimised with the
// verified closures.
func slamPass(e *env, tr *tracer) (passResult, error) {
	return slamOver(e, e.takeFresh(), tr, 0)
}

func slamOver(e *env, frames []*cloud.Cloud, tr *tracer, parent uint64) (passResult, error) {
	out, err := runStream(frames, stream.Config{Pipeline: e.cfg, Pipelined: true, Loop: e.loopConfig()}, tr, parent)
	if err != nil {
		return passResult{}, err
	}
	res := e.scoreStream(out, len(frames))

	deltas := make([]geom.Transform, 0, out.traj.Len())
	for _, fr := range out.traj.Frames[1:] {
		deltas = append(deltas, fr.Delta)
	}
	g := posegraph.FromOdometry(geom.IdentityTransform(), synth.DriftDeltas(deltas, driftYawDeg*math.Pi/180, driftScale))
	for _, cl := range out.closures {
		g.AddEdge(posegraph.Edge{I: cl.To, J: cl.From, Z: cl.Delta, TransWeight: 10, RotWeight: 10, Robust: true})
	}
	drifted := append([]geom.Transform(nil), g.Poses...)
	var opt []geom.Transform
	var solve posegraph.Result
	_, solveWall := tr.span("posegraph.Optimize", len(frames), parent, func(uint64) {
		opt, solve, err = g.Optimize(posegraph.Options{Parallelism: e.par})
	})
	if err != nil {
		return res, fmt.Errorf("pose-graph optimize: %w", err)
	}
	res.wall = out.wall + solveWall
	truth := e.seq.Poses[:len(opt)]
	res.ate = posegraph.ATE(opt, truth).RMSE
	res.solve = solve
	res.graph = g
	res.loop = out.stats.Loop
	res.loopTime = out.stats.LoopTime
	res.retainedB = out.retainedB
	res.digest = poseDigest(append(append([]geom.Transform(nil), out.traj.Poses...), opt...))
	if e.w.loop && e.sc.accountable {
		// A loop stage that finds nothing on a circuit is broken, not
		// slow; and the back-end must repair drift, not add to it.
		if len(out.closures) == 0 {
			res.problems = append(res.problems, fmt.Sprintf("no loop closure was verified on a %d-frame circuit of %d frames per lap", len(frames), e.sc.slamLap))
		} else if driftedATE := posegraph.ATE(drifted, truth).RMSE; res.ate >= driftedATE {
			res.problems = append(res.problems, fmt.Sprintf("optimised ATE %.3f m is no better than the drifted %.3f m", res.ate, driftedATE))
		}
	}
	return res, nil
}
