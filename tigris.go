// Package tigris is the public API of the Tigris reproduction: point
// cloud registration (the paper's configurable two-phase pipeline),
// acceleration-amenable KD-tree search (two-stage trees and the
// approximate leader/follower algorithm), the cycle-level accelerator
// model, CPU/GPU baseline models, and a synthetic LiDAR dataset generator.
//
// # Quick start
//
//	seq := tigris.GenerateSequence(tigris.EvalSequenceConfig(2, 42))
//	res := tigris.Register(seq.Frames[1], seq.Frames[0], tigris.DefaultPipelineConfig())
//	err := tigris.EvaluatePair(res.Transform, seq.GroundTruthDelta(0))
//	fmt.Printf("terr %.2f%%  rerr %.4f deg/m\n", err.TranslationalPct, err.RotationalDegPerM)
//
// Every query-dominated stage issues its neighbor searches through the
// batched parallel Searcher API, spreading the millions of per-frame
// queries over a worker pool — the software counterpart of the
// query-level parallelism the paper's two-stage tree exposes to hardware.
// PipelineConfig.Searcher.Parallelism pins the pool size (0 = the slot
// budget, GOMAXPROCS; 1 = the sequential path); exact backends return
// bit-identical results at any setting.
//
// # Layout
//
// The implementation lives in internal/ packages. This package holds the
// names examples/ and the README's code use and nothing else
// (TestFacadeNamesHaveAConsumer fails on any other): a type a caller
// writes down is an alias, and the rest are reached through what the
// functions here return and the fields of the configs they take, whose
// documented methods and fields are public API with them.
//
//   - dataset: GenerateSequence, Quick/EvalSequenceConfig,
//     CircuitTrajectory, DriftOdometry (internal/synth)
//   - clouds: NewCloud, VoxelDownsample, WriteCloud (internal/cloud)
//   - registration: Register, DefaultPipelineConfig, NamedDesignPoints,
//     SearcherConfig, EvaluatePair, AggregateErrors
//     (internal/registration, internal/dse)
//   - search: BuildKDTree, BuildTwoStageTreeWithLeafSize, the backend
//     registry (RegisterSearchBackend, SearchOptions, Backend* names) and
//     trace capture (TraceLog) (internal/kdtree, internal/twostage,
//     internal/search)
//   - streaming and SLAM: NewStream, StreamConfig, LoopConfig,
//     PoseGraphFromOdometry, PoseGraphEdge, PoseGraphOptions, ATE
//     (internal/stream, internal/loop, internal/posegraph)
//   - accelerator and baselines: Simulate, SimWorkload,
//     WorkloadsFromTrace, DefaultAccelConfig, GPUBaseline, CPUBaseline,
//     ProfileCanonicalSearch (internal/sim, internal/baseline)
package tigris

import (
	"io"

	"tigris/internal/baseline"
	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/geom"
	"tigris/internal/kdtree"
	"tigris/internal/loop"
	"tigris/internal/posegraph"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/sim"
	"tigris/internal/stream"
	"tigris/internal/synth"
	"tigris/internal/twostage"
)

// Transform is a rigid-body transform (rotation + translation).
type Transform = geom.Transform

// IdentityTransform returns the identity rigid transform.
func IdentityTransform() Transform { return geom.IdentityTransform() }

// NewCloud returns an empty cloud (points plus optional normals) with
// capacity for n points.
func NewCloud(n int) *cloud.Cloud { return cloud.New(n) }

// VoxelDownsample reduces a cloud to one centroid per voxel cell, at the
// pipeline's float32 precision; normals are not carried over.
func VoxelDownsample(c *cloud.Cloud, leaf float64) *cloud.Cloud {
	return cloud.FromPoints(cloud.VoxelDownsampleSlab(cloud.SlabFromPoints(c.Points), leaf).Points())
}

// WriteCloud serializes a cloud in the ASCII TIGRIS-CLOUD format.
func WriteCloud(w io.Writer, c *cloud.Cloud) error { return cloud.Write(w, c) }

// BuildKDTree constructs a canonical KD-tree (paper §4.1).
func BuildKDTree(pts []geom.Vec3) *kdtree.Tree { return kdtree.Build(pts) }

// BuildTwoStageTreeWithLeafSize constructs the paper's
// parallelism-exposing two-stage tree (§4.1) with leaf sets of roughly
// targetLeafSize points (the Fig. 6 knob).
func BuildTwoStageTreeWithLeafSize(pts []geom.Vec3, targetLeafSize int) *twostage.Tree {
	return twostage.BuildWithLeafSize(pts, targetLeafSize)
}

// Search-backend registry. Backends are selected by name everywhere a
// SearcherConfig travels — the pipeline, the streaming engine, the HTTP
// service session JSON, the paper's figures, and every cmd's -backend
// flag — and extensions registered here are immediately selectable in all
// of them.
type (
	// SearchOptions is the generic backend option bag (see the
	// search.Opt* keys); values may come from JSON, CLI flags, or Go
	// code.
	SearchOptions = search.Options
	// TraceLog accumulates the query batches the "trace" backend records;
	// feed its Batches to WorkloadsFromTrace for accelerator replay.
	TraceLog = search.TraceLog
	// SearcherConfig selects the search backend — by registry name
	// (Backend + Options) — and its Parallelism (the batch worker count
	// every parallel stage runs with; 0 = the slot budget, 1 = sequential).
	SearcherConfig = registration.SearcherConfig
)

// Registered backend names.
const (
	BackendTwoStage = search.BackendTwoStage
	BackendTrace    = search.BackendTrace
)

// RegisterSearchBackend adds a backend to the registry; duplicate names
// are an error.
func RegisterSearchBackend(b search.Backend) error { return search.RegisterBackend(b) }

// WorkloadsFromTrace converts a trace-backend capture into accelerator
// workloads, one per recorded stage batch (exact k-NN batches are
// skipped: the modeled datapath serves NN and radius search).
func WorkloadsFromTrace(batches []search.TraceBatch) []SimWorkload {
	return sim.WorkloadsFromTrace(batches)
}

// Register estimates the transform mapping src onto dst.
func Register(src, dst *cloud.Cloud, cfg registration.PipelineConfig) registration.Result {
	return registration.Register(src, dst, cfg)
}

// FrameError is the KITTI-style per-pair error.
type FrameError = registration.FrameError

// EvaluatePair scores an estimated transform against ground truth.
func EvaluatePair(estimated, truth Transform) FrameError {
	return registration.EvaluatePair(estimated, truth)
}

// AggregateErrors summarizes per-frame errors.
func AggregateErrors(errs []FrameError) registration.SequenceError {
	return registration.Aggregate(errs)
}

// DefaultPipelineConfig returns a balanced design point (the DSE base
// configuration) suitable for the synthetic LiDAR frames.
func DefaultPipelineConfig() registration.PipelineConfig {
	return NamedDesignPoints()[4].Config // DP5: the balanced middle of the frontier
}

// NamedDesignPoints returns the paper's Pareto points DP1–DP8.
func NamedDesignPoints() []dse.DesignPoint { return dse.NamedDesignPoints() }

// StreamConfig parameterizes a streaming session.
type StreamConfig = stream.Config

// NewStream starts a streaming odometry session: frames are pushed one
// at a time, each frame's front-end is computed once and reused when the
// frame becomes the next pair's target, and (when pipelined) frame N's
// front-end overlaps frame N−1's fine-tuning. When the front-end's
// estimate is rejected, a pair's ICP starts from the previous pair's
// delta (registration.AlignFrom). For exact search backends the
// trajectory is bit-identical to the per-pair loop that prepares both
// clouds of every pair and aligns it from the previous pair's delta.
// Close it to stop the pipeline workers and release the last frame's
// state.
func NewStream(cfg StreamConfig) *stream.Engine { return stream.New(cfg) }

// SLAM layer: loop closure + pose-graph optimization. A streaming
// session with StreamConfig.Loop set detects and verifies revisits
// (Closures) and serves the globally optimized trajectory
// (OptimizedPoses).
type (
	// LoopConfig parameterizes place recognition: the signature-index
	// search backend and temporal gating.
	LoopConfig = loop.Config
	// PoseGraphEdge is one relative-pose constraint X_I⁻¹∘X_J = Z.
	PoseGraphEdge = posegraph.Edge
	// PoseGraphOptions configures the Gauss–Newton/LM optimizer.
	PoseGraphOptions = posegraph.Options
)

// PoseGraphFromOdometry builds a graph whose initial poses compose the
// odometry chain from origin, with one edge per step.
func PoseGraphFromOdometry(origin Transform, deltas []Transform) *posegraph.Graph {
	return posegraph.FromOdometry(origin, deltas)
}

// ATE computes the absolute trajectory error of est against ref after
// first-pose anchoring.
func ATE(est, ref []Transform) posegraph.ATEResult { return posegraph.ATE(est, ref) }

// CircuitTrajectory drives a closed circular lap — the ground-truth loop
// the SLAM layer closes.
type CircuitTrajectory = synth.CircuitTrajectory

// DriftOdometry corrupts odometry deltas with a deterministic
// calibration-style bias (yaw radians and translation scale per frame),
// the synthetic drift model the SLAM benchmarks repair.
func DriftOdometry(deltas []Transform, yawRad, scale float64) []Transform {
	return synth.DriftDeltas(deltas, yawRad, scale)
}

// GenerateSequence renders LiDAR frames (with ground-truth poses) along a
// trajectory.
func GenerateSequence(cfg synth.SequenceConfig) *synth.Sequence {
	return synth.GenerateSequence(cfg)
}

// QuickSequenceConfig returns a small, fast test-scale dataset config.
func QuickSequenceConfig(frames int, seed int64) synth.SequenceConfig {
	return synth.QuickSequenceConfig(frames, seed)
}

// EvalSequenceConfig returns the experiment-scale dataset config
// (~18k points/frame).
func EvalSequenceConfig(frames int, seed int64) synth.SequenceConfig {
	return synth.EvalSequenceConfig(frames, seed)
}

// SimWorkload is a batch of same-kind search queries for the accelerator
// and baseline models.
type SimWorkload = sim.Workload

// NNSearch marks a SimWorkload of nearest-neighbor queries.
const NNSearch = sim.NNSearch

// DefaultAccelConfig returns the paper's evaluated configuration (64 RUs,
// 32 SUs, 32 PEs/SU at 500 MHz).
func DefaultAccelConfig() sim.Config { return sim.DefaultConfig() }

// Simulate executes the workload on the modeled accelerator (§5).
func Simulate(tree *twostage.Tree, w SimWorkload, cfg sim.Config) (*sim.Report, error) {
	return sim.Run(tree, w, cfg)
}

// GPUBaseline returns the RTX 2080 Ti throughput/power model (paper §6.1).
func GPUBaseline() baseline.Model { return baseline.RTX2080Ti }

// CPUBaseline returns the Xeon 4110 throughput/power model (paper §6.1).
func CPUBaseline() baseline.Model { return baseline.Xeon4110 }

// ProfileCanonicalSearch replays the workload on a canonical KD-tree and
// summarizes it as the visit counts the baseline models price.
func ProfileCanonicalSearch(t *kdtree.Tree, w SimWorkload) baseline.Profile {
	return baseline.ProfileCanonical(t, w)
}
