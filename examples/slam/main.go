// SLAM: turn pairwise odometry into a globally consistent trajectory.
// A vehicle drives a closed circuit, the streaming engine's loop-closure
// stage recognizes the revisit (frame signatures through the pluggable
// search-backend registry, verified with the full registration
// pipeline), and pose-graph optimization pulls a drift-corrupted
// odometry chain back onto the ground truth. Every step uses the public
// tigris API; bench's slam_circuit workload measures the same stack.
//
//	go run ./examples/slam [-frames N] [-lap N]
package main

import (
	"flag"
	"fmt"
	"math"

	"tigris"
)

func main() {
	lap := flag.Int("lap", 40, "frames per circuit lap")
	frames := flag.Int("frames", 46, "total frames (one lap + revisits)")
	flag.Parse()

	// A closed circuit: frame lap+k re-observes frame k's pose.
	seqCfg := tigris.QuickSequenceConfig(*frames, 77)
	seqCfg.Trajectory = tigris.CircuitTrajectory{Radius: 3, FramesPerLap: *lap}
	seq := tigris.GenerateSequence(seqCfg)

	// The accuracy-oriented design point suits the sparse synthetic
	// frames; the loop stage indexes frame signatures with the two-stage
	// backend and verifies candidates with the same pipeline.
	cfg := tigris.NamedDesignPoints()[6].Config // DP7
	eng := tigris.NewStream(tigris.StreamConfig{
		Pipeline:  cfg,
		Pipelined: true,
		Loop: &tigris.LoopConfig{
			Backend:       tigris.BackendTwoStage,
			MinSeparation: *lap - 2,
			MaxCandidates: 2,
			Cooldown:      1,
		},
	})
	fmt.Printf("streaming %d frames around a %d-frame circuit...\n", seq.Len(), *lap)
	for _, f := range seq.Frames {
		if _, err := eng.Push(f); err != nil {
			panic(err)
		}
	}
	eng.Drain()
	defer eng.Close()

	traj := eng.Trajectory()
	for _, cl := range eng.Closures() {
		fmt.Printf("loop closed: frame %d revisits frame %d (rmse %.3f m, signature dist %.2f)\n",
			cl.From, cl.To, cl.RMSE, cl.SigDist)
	}

	// Corrupt the measured odometry with a deterministic calibration-style
	// drift, then let the pose graph repair it with the loop edges.
	deltas := make([]tigris.Transform, 0, traj.Len()-1)
	for _, fr := range traj.Frames[1:] {
		deltas = append(deltas, fr.Delta)
	}
	drifted := tigris.DriftOdometry(deltas, 0.6*math.Pi/180, 1.06)
	g := tigris.PoseGraphFromOdometry(tigris.IdentityTransform(), drifted)
	for _, cl := range eng.Closures() {
		g.AddEdge(tigris.PoseGraphEdge{I: cl.To, J: cl.From, Z: cl.Delta,
			TransWeight: 10, RotWeight: 10, Robust: true})
	}
	before := tigris.ATE(g.Poses, seq.Poses)
	opt, res, err := g.Optimize(tigris.PoseGraphOptions{})
	if err != nil {
		panic(err)
	}
	after := tigris.ATE(opt, seq.Poses)

	fmt.Printf("\npose graph: %d nodes, %d edges, %d iterations (cost %.3g -> %.3g)\n",
		len(g.Poses), len(g.Edges), res.Iterations, res.InitialCost, res.FinalCost)
	fmt.Printf("ATE RMSE: drifted odometry %.3f m -> optimized %.3f m (%.1fx better)\n",
		before.RMSE, after.RMSE, before.RMSE/after.RMSE)
}
