package tigris_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"tigris"
	"tigris/internal/dse"
	"tigris/internal/synth"
)

// loopCounts is the exact outcome of one loop-on session: slam_circuit's
// seed-1 street (generator seed 3), DP7 on 16×300 frames around a radius-3
// circuit of 40 frames a lap, 64 frames streamed with the loop stage on;
// then, as slam_circuit scores it, the odometry drifted by 0.6° of yaw and
// 6 % of scale a frame and optimized with the verified closures.
type loopCounts struct {
	Scene    int64 `json:"scene"`
	Frames   int   `json:"frames"`
	Observed int64 `json:"observed"`
	Proposed int64 `json:"proposed"`
	Verified int64 `json:"verified"`
	Accepted int64 `json:"accepted"`
	// VerificationICPIterations is loop.Stats.ICPIterations.
	VerificationICPIterations int64          `json:"verification_icp_iterations"`
	Closures                  []closureCount `json:"closures"`
	// PoseDigest covers the odometry poses, OptimizedATERMSE (%.17g) the
	// optimized ones.
	PoseDigest       string `json:"pose_digest"`
	OptimizedATERMSE string `json:"optimized_ate_rmse_m"`
}

// closureCount is one accepted closure: its pair and its Delta's bits.
type closureCount struct {
	From        int    `json:"from"`
	To          int    `json:"to"`
	DeltaDigest string `json:"delta_digest"`
}

// TestLoopCounts streams the loop-on circuit at two workers, pipelined,
// and at one, unpipelined, requires the two rows to be equal and the row
// to equal testdata/counts.json's loop_circuit; -update rewrites that row
// alone.
func TestLoopCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 64-frame circuit with loop closure on, twice")
	}
	const scene, frames = 3, 64
	seq := tigris.GenerateSequence(synth.SequenceConfig{
		Scene:      synth.SceneConfig{Seed: scene, Length: 120},
		Lidar:      synth.LidarConfig{Beams: 16, AzimuthSteps: 300, Seed: scene},
		NumFrames:  frames,
		Trajectory: tigris.CircuitTrajectory{Radius: 3, FramesPerLap: 40},
	})
	var rows [2]*loopCounts
	var wg sync.WaitGroup
	for i, shape := range []struct {
		workers   int
		pipelined bool
	}{{2, true}, {1, false}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i] = loopCircuit(scene, seq, shape.workers, shape.pipelined)
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Fatalf("one worker, unpipelined, differs from two, pipelined:\n%+v\nvs\n%+v", rows[1], rows[0])
	}
	checkCountsFile(t, func(doc *countsDoc) { doc.LoopCircuit = rows[0] })
}

// loopCircuit streams seq, scene's circuit, through a loop-on DP7 session
// and scores it.
func loopCircuit(scene int64, seq *synth.Sequence, workers int, pipelined bool) *loopCounts {
	cfg := dse.DP7().Config
	cfg.Searcher.Parallelism = workers
	eng := tigris.NewStream(tigris.StreamConfig{
		Pipeline:  cfg,
		Pipelined: pipelined,
		Loop:      &tigris.LoopConfig{Backend: "twostage", MinSeparation: 38, MaxCandidates: 2, Cooldown: 1},
	})
	for _, f := range seq.Frames {
		if _, err := eng.Push(f); err != nil {
			panic(err)
		}
	}
	eng.Drain()
	traj, closures := eng.Trajectory(), eng.Closures()
	eng.Close()
	st := eng.Stats().Loop

	row := &loopCounts{
		Scene: scene, Frames: seq.Len(),
		Observed: st.Observed, Proposed: st.Proposed, Verified: st.Verified, Accepted: st.Accepted,
		VerificationICPIterations: st.ICPIterations,
		PoseDigest:                digest(traj.Poses...),
	}
	deltas := make([]tigris.Transform, 0, traj.Len()-1)
	for _, fr := range traj.Frames[1:] {
		deltas = append(deltas, fr.Delta)
	}
	g := tigris.PoseGraphFromOdometry(tigris.IdentityTransform(), tigris.DriftOdometry(deltas, 0.6*math.Pi/180, 1.06))
	for _, cl := range closures {
		row.Closures = append(row.Closures, closureCount{From: cl.From, To: cl.To, DeltaDigest: digest(cl.Delta)})
		g.AddEdge(tigris.PoseGraphEdge{I: cl.To, J: cl.From, Z: cl.Delta, TransWeight: 10, RotWeight: 10, Robust: true})
	}
	opt, _, err := g.Optimize(tigris.PoseGraphOptions{Parallelism: workers})
	if err != nil {
		panic(err)
	}
	row.OptimizedATERMSE = fmt.Sprintf("%.17g", tigris.ATE(opt, seq.Poses).RMSE)
	return row
}
