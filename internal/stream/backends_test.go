package stream

import (
	"reflect"
	"testing"

	"tigris/internal/dse"
	"tigris/internal/geom"
	"tigris/internal/loop"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/synth"
)

// poseRecord is what a session produced that depends on search answers:
// per frame the registration and what fine-tuning did to reach it, then
// the loop stage's closures and the optimized trajectory.
type poseRecord struct {
	transforms []geom.Transform
	iterations []int
	rmse       []float64
	closures   []loop.Closure
	optimized  []geom.Transform
}

// runOnBackend streams seq through an engine at the named design point on
// the named backend, with the loop stage when loopCfg is set.
func runOnBackend(t *testing.T, seq *synth.Sequence, designPoint, backend string, loopCfg *loop.Config) poseRecord {
	t.Helper()
	var cfg registration.PipelineConfig
	for _, dp := range dse.NamedDesignPoints() {
		if dp.Name == designPoint {
			cfg = dp.Config
		}
	}
	cfg.Searcher = registration.SearcherConfig{Backend: backend, Parallelism: 2}
	eng := New(Config{Pipeline: cfg, Pipelined: true, Loop: loopCfg})
	defer eng.Close()
	for _, f := range seq.Frames {
		if _, err := eng.Push(f.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	var rec poseRecord
	for _, fr := range eng.Trajectory().Frames {
		rec.transforms = append(rec.transforms, fr.Reg.Transform)
		rec.iterations = append(rec.iterations, fr.Reg.ICP.Iterations)
		rec.rmse = append(rec.rmse, fr.Reg.ICP.FinalRMSE)
	}
	if loopCfg != nil {
		rec.closures = eng.Closures()
		opt, _, err := eng.OptimizedPoses()
		if err != nil {
			t.Fatal(err)
		}
		rec.optimized = opt
	}
	return rec
}

// TestExactBackendsSamePoses is the contract that lets the default
// backend be whichever exact structure is fastest: the canonical tree, the
// two-stage tree and the linear scan return the same neighbours in the
// same order, so every pose a session produces — each frame's Transform,
// the ICP iterations and final RMSE behind it, every loop closure and
// every optimized pose — is equal bit for bit whichever of them serves the
// queries. DP5 and DP7 drive four of the benchmark's vetted streets at
// its full 32×600 density on the two trees; the circuit runs with the loop
// stage on; and a tiny-scale drive and circuit add the linear scan, which
// is too slow for the rest.
func TestExactBackendsSamePoses(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-pipeline runs on several backends")
	}
	trees := []string{search.BackendCanonical, search.BackendTwoStage}
	all := append(trees, search.BackendBruteForce)
	compare := func(name string, seq *synth.Sequence, designPoint string, loopCfg *loop.Config, backends []string) poseRecord {
		t.Helper()
		want := runOnBackend(t, seq, designPoint, backends[0], loopCfg)
		for _, backend := range backends[1:] {
			if got := runOnBackend(t, seq, designPoint, backend, loopCfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: %s differs from %s\n got %+v\nwant %+v", name, designPoint, backend, backends[0], got, want)
			}
		}
		return want
	}
	circuit := func(cfg synth.SequenceConfig, perLap int) (*synth.Sequence, *loop.Config) {
		cfg.Trajectory = synth.CircuitTrajectory{Radius: 3, FramesPerLap: perLap}
		return synth.GenerateSequence(cfg), &loop.Config{MinSeparation: perLap - 2, MaxCandidates: 2, Cooldown: 1}
	}

	for _, street := range []int64{1, 3, 4, 5} { // bench/inputs.go's first vetted scenes
		seq := synth.GenerateSequence(synth.EvalSequenceConfig(3, street))
		for _, dp := range []string{"DP5", "DP7"} {
			compare("street", seq, dp, nil, trees)
		}
	}
	seq, loopCfg := circuit(synth.QuickSequenceConfig(slamPerLap+4, 77), slamPerLap)
	if rec := compare("circuit", seq, "DP7", loopCfg, trees); len(rec.closures) == 0 {
		t.Error("circuit: no closure: the loop stage's verification is not compared")
	}

	tiny := synth.QuickSequenceConfig(4, 1)
	tiny.Lidar.Beams, tiny.Lidar.AzimuthSteps = 8, 90
	for _, dp := range []string{"DP5", "DP7"} {
		compare("tiny street", synth.GenerateSequence(tiny), dp, nil, all)
	}
	tiny.NumFrames = 12
	seq, loopCfg = circuit(tiny, 10)
	compare("tiny circuit", seq, "DP7", loopCfg, all)
}
