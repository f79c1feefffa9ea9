package stream

import (
	"sync"
	"sync/atomic"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/geom"
	"tigris/internal/loop"
	"tigris/internal/obs"
	"tigris/internal/par"
	"tigris/internal/posegraph"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// The SLAM acceptance tests: on a synthetic circuit with a ground-truth
// loop, the engine's loop-closure stage must detect the revisit, and
// pose-graph optimization must pull a drifted odometry chain measurably
// back toward the truth — with the whole stack bit-identical at any
// Parallelism and pipelining setting.

const slamPerLap = 40

// slamSequence renders one lap plus a few revisit frames of the closed
// circuit at the quick scale.
func slamSequence(frames int) *synth.Sequence {
	cfg := synth.QuickSequenceConfig(frames, 77)
	cfg.Trajectory = synth.CircuitTrajectory{Radius: 3, FramesPerLap: slamPerLap}
	return synth.GenerateSequence(cfg)
}

// slamEngineConfig is the accuracy-oriented design point (DP7): the
// quick synthetic frames are too sparse for the performance points to
// register a turning trajectory.
func slamEngineConfig(parallelism int, pipelined bool) Config {
	cfg := dse.NamedDesignPoints()[6].Config // DP7
	cfg.Searcher.Parallelism = parallelism
	return Config{
		Pipeline:  cfg,
		Pipelined: pipelined,
		Loop: &loop.Config{
			Backend:       "twostage",
			MinSeparation: slamPerLap - 2,
			MaxCandidates: 2,
			Cooldown:      1,
		},
	}
}

// runSLAM streams the sequence through an engine and returns the raw
// trajectory, the verified closures, and the optimized poses.
func runSLAM(t *testing.T, seq *synth.Sequence, parallelism int, pipelined bool) (Trajectory, []loop.Closure, []geom.Transform) {
	t.Helper()
	eng := New(slamEngineConfig(parallelism, pipelined))
	defer eng.Close()
	for _, f := range seq.Frames {
		if _, err := eng.Push(f.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	traj := eng.Trajectory()
	closures := eng.Closures()
	opt, res, err := eng.OptimizedPoses()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("pose-graph optimization did not converge: %+v", res)
	}
	return traj, closures, opt
}

func TestSLAMLoopClosureEndToEnd(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-pipeline SLAM run")
	}
	seq := slamSequence(slamPerLap + 6)
	traj, closures, opt := runSLAM(t, seq, 1, false)

	// (1) The loop is detected: at least one verified closure connecting
	// a revisit frame to the lap start, temporally gated, with a relative
	// transform matching ground truth.
	if len(closures) == 0 {
		t.Fatal("no loop closure detected on a closed circuit")
	}
	for _, cl := range closures {
		if cl.From-cl.To < slamPerLap-2 {
			t.Fatalf("closure %d->%d violates the temporal gate", cl.From, cl.To)
		}
		truth := seq.Poses[cl.To].Inverse().Compose(seq.Poses[cl.From])
		if e := cl.Delta.Inverse().Compose(truth).TranslationNorm(); e > 0.1 {
			t.Errorf("closure %d->%d delta is %.3f m from ground truth", cl.From, cl.To, e)
		}
	}

	// (2) Optimizing the engine's own (low-drift) odometry must not make
	// the trajectory worse.
	ateOdom := posegraph.ATE(traj.Poses, seq.Poses)
	ateOpt := posegraph.ATE(opt, seq.Poses)
	if ateOpt.RMSE > ateOdom.RMSE*1.05 {
		t.Errorf("optimization degraded ATE: %.4f -> %.4f m", ateOdom.RMSE, ateOpt.RMSE)
	}

	// (3) The headline margin, on the synthetic drift model: corrupt the
	// measured odometry with a deterministic calibration-style bias
	// (yaw + scale), rebuild the pose graph with the verified loop edges,
	// and optimization must reduce ATE by a solid measured margin.
	deltas := make([]geom.Transform, 0, traj.Len()-1)
	for _, fr := range traj.Frames[1:] {
		deltas = append(deltas, fr.Delta)
	}
	drifted := synth.DriftDeltas(deltas, 0.01, 1.06)
	g := posegraph.FromOdometry(geom.IdentityTransform(), drifted)
	for _, cl := range closures {
		g.AddEdge(posegraph.Edge{I: cl.To, J: cl.From, Z: cl.Delta, TransWeight: 10, RotWeight: 10, Robust: true})
	}
	before := posegraph.ATE(g.Poses, seq.Poses)
	optPoses, res, err := g.Optimize(posegraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := posegraph.ATE(optPoses, seq.Poses)
	if !res.Converged || res.FinalCost >= res.InitialCost {
		t.Fatalf("drifted graph did not optimize: %+v", res)
	}
	if after.RMSE >= 0.75*before.RMSE {
		t.Errorf("drifted ATE %.4f -> %.4f m: want at least a 25%% reduction", before.RMSE, after.RMSE)
	}
	t.Logf("closures=%d  engine ATE %.4f -> %.4f  drifted ATE %.4f -> %.4f",
		len(closures), ateOdom.RMSE, ateOpt.RMSE, before.RMSE, after.RMSE)
}

// TestSLAMBitIdenticalAcrossParallelism is the determinism acceptance:
// trajectory, closure set, and optimized poses must match float for
// float at any Parallelism, pipelined or not.
func TestSLAMBitIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-pipeline SLAM run")
	}
	seq := slamSequence(slamPerLap + 4)
	trajG, clG, optG := runSLAM(t, seq, 1, false)
	if len(clG) == 0 {
		t.Fatal("golden run found no closure")
	}
	for _, v := range []struct {
		p         int
		pipelined bool
	}{{4, false}, {2, true}} {
		traj, cl, opt := runSLAM(t, seq, v.p, v.pipelined)
		if len(cl) != len(clG) {
			t.Fatalf("p=%d pipelined=%v: %d closures, want %d", v.p, v.pipelined, len(cl), len(clG))
		}
		for i := range cl {
			if cl[i] != clG[i] {
				t.Fatalf("p=%d pipelined=%v: closure %d differs: %+v vs %+v", v.p, v.pipelined, i, cl[i], clG[i])
			}
		}
		for i := range traj.Poses {
			if traj.Poses[i] != trajG.Poses[i] {
				t.Fatalf("p=%d pipelined=%v: trajectory pose %d differs", v.p, v.pipelined, i)
			}
		}
		for i := range opt {
			if opt[i] != optG[i] {
				t.Fatalf("p=%d pipelined=%v: optimized pose %d differs", v.p, v.pipelined, i)
			}
		}
	}
}

// TestLoopStageConcurrency exercises the pipelined loop stage's
// goroutine handoffs on a small sequence (run under -race in CI). The
// scenario is too small to accept closures; the point is the Observe /
// verify / drain choreography.
func TestLoopStageConcurrency(t *testing.T) {
	cfg := dse.NamedDesignPoints()[3].Config // DP4: cheap
	cfg.Searcher.Parallelism = 2
	seq := slamSequence(14)
	eng := New(Config{
		Pipeline:  cfg,
		Pipelined: true,
		Loop:      &loop.Config{MinSeparation: 6, MaxCandidates: 2, Cooldown: 1},
	})
	for _, f := range seq.Frames {
		if _, err := eng.Push(f.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d after Drain", eng.Pending())
	}
	st := eng.Stats()
	if st.Loop.Observed != int64(seq.Len()) {
		t.Fatalf("loop stage observed %d of %d frames", st.Loop.Observed, seq.Len())
	}
	if _, _, err := eng.OptimizedPoses(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
}

// countingBackend is the two-stage backend behind a counter of real index
// constructions over non-empty slabs (config validation builds over an
// empty one). Registered once a process, so -count=N works.
var countingBackend struct {
	once   sync.Once
	builds atomic.Int64
}

const countingBackendName = "test-stream-counting"

func registerCountingBackend(t *testing.T) {
	t.Helper()
	countingBackend.once.Do(func() {
		err := search.RegisterBackend(search.NewBackend(countingBackendName, func(slab *cloud.Slab, opts search.Options) (search.Searcher, error) {
			if slab.Len() > 0 {
				countingBackend.builds.Add(1)
			}
			return search.NewByNameSlab(search.BackendTwoStage, slab, opts)
		}))
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestLoopSessionBuildsEachIndexOnce counts what Stats' front-end
// counters only assert: with the pipeline's indexes built by a counting
// backend (the loop stage's signature index stays on the canonical one),
// a pipelined loop-on session of N downsampled frames constructs N
// front-end indexes, N−1 fine-tuning indexes (the last frame is nobody's
// target) and one raw index per verification — no front-end runs twice.
// Re-preparing both frames in every verification cost three constructions
// and two front-ends each.
func TestLoopSessionBuildsEachIndexOnce(t *testing.T) {
	registerCountingBackend(t)
	cfg := dse.NamedDesignPoints()[3].Config // DP4: downsampled, cheap
	cfg.Searcher.Backend = countingBackendName
	cfg.Searcher.Parallelism = 2
	seq := slamSequence(14)
	n := int64(seq.Len())
	before := countingBackend.builds.Load()
	eng := New(Config{
		Pipeline:  cfg,
		Pipelined: true,
		Loop:      &loop.Config{MinSeparation: 6, MaxCandidates: 2, Cooldown: 1},
	})
	for _, f := range seq.Frames {
		if _, err := eng.Push(f.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	st := eng.Stats()
	builds := countingBackend.builds.Load() - before
	if st.Loop.Verified == 0 {
		t.Fatal("no loop candidate was verified")
	}
	if want := n + (n - 1) + st.Loop.Verified; builds != want {
		t.Errorf("%d index constructions for %d frames and %d verifications, want %d (%d a verification)",
			builds, n, st.Loop.Verified, want, (builds-n-(n-1))/st.Loop.Verified)
	}
	if st.FramesPrepared != n || st.DescriptorBuilds != n || st.TreeBuilds != n+(n-1) {
		t.Errorf("stats report %d front-ends, %d descriptor builds, %d tree builds for %d odometry frames",
			st.FramesPrepared, st.DescriptorBuilds, st.TreeBuilds, n)
	}
}

// TestLoopVerificationOverlapsOnDemandNormals pins what the loop stage
// may share with the pipeline. The detector keeps every frame's raw
// position arrays by reference, not a clone. With a downsampled front-end
// and point-to-plane ICP, every iteration of pair N+1's alignment
// estimates normals for frame N's raw points and builds an index over
// them, while the loop worker may still be verifying frame N's
// candidates, which aligns against the same points. That is safe only
// because the positions are never written after the front-end and each
// side writes normals into arrays of its own (run under -race in CI),
// and the overlap has to really happen for the run to prove it: the
// flight recorder's spans must show a verification in progress during a
// later frame's alignment.
func TestLoopVerificationOverlapsOnDemandNormals(t *testing.T) {
	if par.Slots() < 2 {
		t.Skip("one slot: stages take turns, so nothing can overlap")
	}
	cfg := dse.NamedDesignPoints()[3].Config // DP4: downsampled, point-to-plane, cheap
	cfg.Searcher.Parallelism = 2
	seq := slamSequence(14)
	fr := obs.NewFlightRecorder(8192, 1)
	eng := New(Config{
		Pipeline:  cfg,
		Pipelined: true,
		Loop:      &loop.Config{MinSeparation: 6, MaxCandidates: 2, Cooldown: 1},
		Flight:    fr,
	})
	for _, f := range seq.Frames {
		if _, err := eng.Push(f.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	st := eng.Stats()
	eng.Close()
	if st.Loop.Verified == 0 {
		t.Fatal("no loop candidate was verified: nothing ran beside the alignments")
	}
	if st.FineNormals == 0 || st.FineNormals >= st.FineTargetPoints {
		t.Fatalf("alignments estimated %d normals on demand for %d target points", st.FineNormals, st.FineTargetPoints)
	}
	overlaps := 0
	evs := fr.Events()
	for _, v := range evs {
		if v.Stage != obs.StageLoopVerify {
			continue
		}
		for _, a := range evs {
			if a.Stage == obs.StageAlign && a.Frame > v.Frame && a.Start < v.Start+v.Dur && v.Start < a.Start+a.Dur {
				overlaps++
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("no verification overlapped a later frame's alignment")
	}
}

// TestOptimizedPosesWithoutLoopStage: no loop stage means a consistent
// graph; the optimized poses are the odometry poses.
func TestOptimizedPosesWithoutLoopStage(t *testing.T) {
	cfg := dse.NamedDesignPoints()[3].Config
	cfg.Searcher.Parallelism = 1
	seq := slamSequence(4)
	eng := New(Config{Pipeline: cfg})
	for _, f := range seq.Frames {
		if _, err := eng.Push(f.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	if got := eng.Closures(); len(got) != 0 {
		t.Fatalf("closures without a loop stage: %v", got)
	}
	traj := eng.Trajectory()
	opt, _, err := eng.OptimizedPoses()
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range opt {
		if !opt[i].NearlyEqual(traj.Poses[i], 1e-9) {
			t.Fatalf("pose %d moved without loop edges", i)
		}
	}
}

// TestLoopConfigValidationPanics: an invalid loop backend must fail
// loudly at construction, matching the searcher-config contract.
func TestLoopConfigValidationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid loop backend")
		}
	}()
	New(Config{
		Pipeline: dse.NamedDesignPoints()[3].Config,
		Loop:     &loop.Config{Backend: "no-such-backend"},
	})
}
