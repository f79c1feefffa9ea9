// Package baseline models the evaluation baselines of paper §6.1: KD-tree
// search running on a CPU (Xeon Silver 4110) and on a GPU (RTX 2080 Ti
// with the FLANN CUDA implementation). See README "Substitutions", 2.
//
// The models replay the *same instrumented search workload* the Tigris
// accelerator executes and convert the observed node-visit counts into
// time through documented throughput constants:
//
//   - Tree-traversal visits are irregular: data-dependent branches and
//     pointer chasing. On the GPU they suffer warp divergence and
//     uncoalesced loads; throughput is low.
//   - Brute-force (leaf-set) visits stream sequentially: they vectorize
//     on the CPU and coalesce on the GPU; throughput is high. This
//     asymmetry is why the two-stage layout helps the GPU too (paper:
//     Base-2SKD is 28.3% faster than Base-KD).
//
// Constants are calibrated to the paper's anchor points: GPU ≈ 8–20×
// CPU on KD-tree search (§6.1), Base-2SKD ≈ 1.3× Base-KD (§6.3), and the
// measured device powers (nvidia-smi / RAPL). Absolute times are model
// outputs; the experiments report ratios.
package baseline

import (
	"time"

	"tigris/internal/kdtree"
	"tigris/internal/par"
	"tigris/internal/sim"
	"tigris/internal/twostage"
)

// Model is a throughput/power model of one baseline device.
type Model struct {
	Name string
	// TreeVisitRate is sustained tree-traversal node visits per second.
	TreeVisitRate float64
	// BruteVisitRate is sustained brute-force distance evaluations per
	// second.
	BruteVisitRate float64
	// LaunchOverhead is charged once per workload (kernel launch, host
	// sync). Zero for the CPU.
	LaunchOverhead time.Duration
	// PowerWatts is the measured device power while running the kernel.
	PowerWatts float64
}

// RTX2080Ti models the paper's GPU baseline running FLANN's CUDA KD-tree.
// 4352 CUDA cores at ~1.5 GHz give a theoretical ~6.5e12 flop/s; KD
// traversal sustains a tiny fraction of that (divergence, gather loads)
// while brute-force leaf scans coalesce well.
var RTX2080Ti = Model{
	Name:           "RTX 2080 Ti (FLANN CUDA)",
	TreeVisitRate:  5.0e9,
	BruteVisitRate: 1.5e11,
	LaunchOverhead: 30 * time.Microsecond,
	PowerWatts:     157,
}

// Xeon4110 models the paper's CPU baseline (PCL/FLANN, single search
// thread as in the reference pipelines).
var Xeon4110 = Model{
	Name:           "Xeon Silver 4110 (PCL/FLANN)",
	TreeVisitRate:  5.5e8,
	BruteVisitRate: 2.2e9,
	PowerWatts:     80,
}

// Profile summarizes a search workload as visit counts, the quantity the
// throughput models consume.
type Profile struct {
	// TreeVisits counts node visits during recursive traversal (canonical
	// tree nodes, or two-stage top-tree nodes).
	TreeVisits int64
	// BruteVisits counts brute-force distance evaluations (two-stage leaf
	// scans and leader checks).
	BruteVisits int64
	// Queries is the workload size.
	Queries int64
}

// Time converts a profile into modeled execution time.
func (m Model) Time(p Profile) time.Duration {
	secs := float64(p.TreeVisits)/m.TreeVisitRate + float64(p.BruteVisits)/m.BruteVisitRate
	return m.LaunchOverhead + time.Duration(secs*1e9)
}

// Energy returns the modeled energy in joules.
func (m Model) Energy(p Profile) float64 {
	return m.Time(p).Seconds() * m.PowerWatts
}

// replayShard is what one worker of a profiling replay owns: its visit
// counters, and the buffer its radius answers are built in — the replay
// reads the counters and drops the answers, so one buffer serves them all.
type replayShard[St any] struct {
	stats St
	buf   []kdtree.Neighbor
}

// ProfileCanonical replays the workload on a canonical KD-tree and
// returns its visit profile (the paper's Base-KD configuration). The
// replay is sequential; use ProfileCanonicalParallel to spread it over a
// worker pool (the profile is identical either way).
func ProfileCanonical(tree *kdtree.Tree, w sim.Workload) Profile {
	return ProfileCanonicalParallel(tree, w, 1)
}

// ProfileCanonicalParallel replays the workload on a canonical KD-tree
// over parallelism workers (<= 0 selects par.Slots). Each worker records
// into its own stats shard and the shards are merged, so the returned
// visit counts are identical to the sequential replay — only the
// wall time changes.
func ProfileCanonicalParallel(tree *kdtree.Tree, w sim.Workload, parallelism int) Profile {
	var stats kdtree.Stats
	par.Sharded(len(w.Queries), par.Workers(parallelism),
		func(shard *replayShard[kdtree.Stats], _, i int) {
			if w.Kind == sim.RadiusSearch {
				shard.buf = tree.RadiusInto(w.Queries[i], w.Radius, shard.buf, &shard.stats)
			} else {
				tree.Nearest(w.Queries[i], &shard.stats)
			}
		},
		func(shard *replayShard[kdtree.Stats]) { stats.Merge(shard.stats) })
	return Profile{
		TreeVisits: stats.NodesVisited,
		Queries:    stats.Queries,
	}
}

// ProfileTwoStage replays the workload on a two-stage tree and returns
// its visit profile (the paper's Base-2SKD configuration). Top-tree
// visits are traversal-shaped; leaf scans are brute-force-shaped. The
// replay is sequential; use ProfileTwoStageParallel for the worker-pool
// variant with an identical profile.
func ProfileTwoStage(tree *twostage.Tree, w sim.Workload) Profile {
	return ProfileTwoStageParallel(tree, w, 1)
}

// ProfileTwoStageParallel replays the workload on a two-stage tree over
// parallelism workers (<= 0 selects par.Slots), with per-worker stats shards
// merged into one profile.
func ProfileTwoStageParallel(tree *twostage.Tree, w sim.Workload, parallelism int) Profile {
	var stats twostage.Stats
	par.Sharded(len(w.Queries), par.Workers(parallelism),
		func(shard *replayShard[twostage.Stats], _, i int) {
			if w.Kind == sim.RadiusSearch {
				shard.buf = tree.RadiusInto(w.Queries[i], w.Radius, shard.buf, &shard.stats)
			} else {
				tree.Nearest(w.Queries[i], &shard.stats)
			}
		},
		func(shard *replayShard[twostage.Stats]) { stats.Merge(shard.stats) })
	return Profile{
		TreeVisits:  stats.TopNodesVisited,
		BruteVisits: stats.LeafPointsViewed + stats.LeaderChecks,
		Queries:     stats.Queries,
	}
}
