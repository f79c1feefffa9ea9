// Package tigris is the public API of the Tigris reproduction: point
// cloud registration (the paper's configurable two-phase pipeline),
// acceleration-amenable KD-tree search (two-stage trees and the
// approximate leader/follower algorithm), the cycle-level accelerator
// model, CPU/GPU baseline models, a synthetic LiDAR dataset generator,
// and the design-space-exploration harness.
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
// PipelineConfig.Searcher.Parallelism pins the pool size (0 = all CPUs,
// 1 = the sequential path); exact backends return bit-identical results
// at any setting.
//
// # Layout
//
// The implementation lives in internal/ packages; this package re-exports
// the stable surface via type aliases, so all documented methods of the
// aliased types are part of the public API:
//
//   - geometry: Vec3, Mat3, Transform (internal/geom)
//   - containers: Cloud (internal/cloud)
//   - search: KDTree, TwoStageTree, approximate sessions (internal/kdtree,
//     internal/twostage, internal/search)
//   - registration: PipelineConfig, Register, the reusable
//     PrepareFrame/AlignFrames stages, ICP, metrics
//     (internal/registration)
//   - streaming: Stream, StreamConfig, Trajectory — the long-running
//     odometry engine behind cmd/tigris-serve (internal/stream)
//   - SLAM: LoopConfig/LoopClosure (place recognition + verification,
//     internal/loop) and PoseGraph/OptimizePoseGraph with ATE/RPE
//     metrics (internal/posegraph), the back-end examples/slam walks
//     through
//   - accelerator: AccelConfig, SimWorkload, Simulate (internal/sim)
//   - baselines: GPUModel/CPUModel (internal/baseline)
//   - dataset: GenerateSequence (internal/synth)
//   - experiments: design points and Pareto tools (internal/dse)
package tigris

import (
	"io"

	"tigris/internal/baseline"
	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/features"
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

// Geometry.
type (
	// Vec3 is a 3D point or direction.
	Vec3 = geom.Vec3
	// Transform is a rigid-body transform (rotation + translation).
	Transform = geom.Transform
	// Mat3 is a 3×3 row-major matrix.
	Mat3 = geom.Mat3
)

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return geom.V3(x, y, z) }

// IdentityTransform returns the identity rigid transform.
func IdentityTransform() Transform { return geom.IdentityTransform() }

// Point clouds.
type (
	// Cloud is a point cloud frame (points plus optional normals).
	Cloud = cloud.Cloud
)

// NewCloud returns an empty cloud with capacity for n points.
func NewCloud(n int) *Cloud { return cloud.New(n) }

// CloudFromPoints wraps a point slice without copying.
func CloudFromPoints(pts []Vec3) *Cloud { return cloud.FromPoints(pts) }

// VoxelDownsample reduces a cloud to one centroid per voxel cell, at the
// pipeline's float32 precision; normals are not carried over.
func VoxelDownsample(c *Cloud, leaf float64) *Cloud {
	return cloud.FromPoints(cloud.VoxelDownsampleSlab(cloud.SlabFromPoints(c.Points), leaf).Points())
}

// WriteCloud serializes a cloud in the ASCII TIGRIS-CLOUD format.
func WriteCloud(w io.Writer, c *Cloud) error { return cloud.Write(w, c) }

// ReadCloud parses a cloud previously produced by WriteCloud.
func ReadCloud(r io.Reader) (*Cloud, error) { return cloud.Read(r) }

// KD-tree search.
type (
	// Neighbor is one search result (point index + squared distance).
	Neighbor = kdtree.Neighbor
	// KDTree is the canonical KD-tree (paper §4.1).
	KDTree = kdtree.Tree
	// KDStats instruments canonical searches.
	KDStats = kdtree.Stats
	// TwoStageTree is the paper's parallelism-exposing structure (§4.1).
	TwoStageTree = twostage.Tree
	// TwoStageStats instruments two-stage searches.
	TwoStageStats = twostage.Stats
	// ApproxOptions configures the leader/follower algorithm (§4.3).
	ApproxOptions = twostage.ApproxOptions
)

// BuildKDTree constructs a canonical KD-tree.
func BuildKDTree(pts []Vec3) *KDTree { return kdtree.Build(pts) }

// BuildTwoStageTree constructs a two-stage tree with the given top height.
func BuildTwoStageTree(pts []Vec3, topHeight int) *TwoStageTree {
	return twostage.Build(pts, topHeight)
}

// BuildTwoStageTreeWithLeafSize constructs a two-stage tree whose leaf
// sets hold roughly targetLeafSize points (the Fig. 6 knob).
func BuildTwoStageTreeWithLeafSize(pts []Vec3, targetLeafSize int) *TwoStageTree {
	return twostage.BuildWithLeafSize(pts, targetLeafSize)
}

// Batched search backends.
type (
	// Searcher is the neighbor-search abstraction every pipeline stage
	// queries through. Alongside the one-at-a-time methods it answers
	// NearestBatch/KNearestBatch/RadiusBatch on a worker pool sized by
	// SetParallelism; exact backends return bit-identical results at any
	// parallelism.
	Searcher = search.Searcher
	// KDSearcher is the canonical KD-tree backend.
	KDSearcher = search.KDSearcher
	// TwoStageSearcher is the two-stage backend, optionally approximate.
	TwoStageSearcher = search.TwoStageSearcher
	// TwoStageSearcherConfig configures a TwoStageSearcher.
	TwoStageSearcherConfig = search.TwoStageConfig
	// BruteSearcher is the linear-scan backend: zero build cost, the
	// correctness oracle, registered as "bruteforce".
	BruteSearcher = search.BruteSearcher
	// TraceSearcher decorates any backend, recording every query batch
	// into a TraceLog; registered as "trace".
	TraceSearcher = search.TraceSearcher
	// SearchMetrics is the per-searcher instrumentation.
	SearchMetrics = search.Metrics
)

// NewKDSearcher builds the canonical KD-tree backend over pts.
func NewKDSearcher(pts []Vec3) *KDSearcher { return search.NewKDSearcher(pts) }

// NewTwoStageSearcher builds the two-stage backend over pts.
func NewTwoStageSearcher(pts []Vec3, cfg TwoStageSearcherConfig) *TwoStageSearcher {
	return search.NewTwoStageSearcher(pts, cfg)
}

// NewBruteSearcher builds the linear-scan backend over pts.
func NewBruteSearcher(pts []Vec3) *BruteSearcher { return search.NewBruteSearcher(pts) }

// Search-backend registry. Backends are selected by name everywhere a
// SearcherConfig travels — the pipeline, the streaming engine, the HTTP
// service session JSON, the DSE harness, and every cmd's -backend flag —
// and extensions registered here are immediately selectable in all of
// them.
type (
	// SearchBackend is a named searcher factory, the registry's unit of
	// registration.
	SearchBackend = search.Backend
	// SearchOptions is the generic backend option bag (see the
	// search.Opt* keys); values may come from JSON, CLI flags, or Go
	// code.
	SearchOptions = search.Options
	// TraceLog accumulates the query batches a TraceSearcher records;
	// feed it to WorkloadsFromTrace for accelerator replay.
	TraceLog = search.TraceLog
	// TraceBatch is one recorded stage batch.
	TraceBatch = search.TraceBatch
)

// Registered backend names (see also SearchBackends for the live set).
const (
	BackendCanonical      = search.BackendCanonical
	BackendTwoStage       = search.BackendTwoStage
	BackendTwoStageApprox = search.BackendTwoStageApprox
	BackendBruteForce     = search.BackendBruteForce
	BackendTrace          = search.BackendTrace
)

// RegisterSearchBackend adds a backend to the registry; duplicate names
// are an error.
func RegisterSearchBackend(b SearchBackend) error { return search.RegisterBackend(b) }

// NewSearchBackend wraps a factory function as a registrable backend.
// The pipeline builds over float32 slabs; fn receives the dequantized
// points.
func NewSearchBackend(name string, fn func(pts []Vec3, opts SearchOptions) (Searcher, error)) SearchBackend {
	return search.NewBackend(name, func(s *cloud.Slab, opts SearchOptions) (Searcher, error) {
		return fn(s.Points(), opts)
	})
}

// SearchBackends returns the registered backend names, sorted.
func SearchBackends() []string { return search.Backends() }

// NewSearcherByName builds a searcher through the registry; unknown
// names report the registered set.
func NewSearcherByName(name string, pts []Vec3, opts SearchOptions) (Searcher, error) {
	return search.NewByNameSlab(name, cloud.SlabFromPoints(pts), opts)
}

// WorkloadsFromTrace converts a trace-backend capture into accelerator
// workloads, one per recorded stage batch (exact k-NN batches are
// skipped: the modeled datapath serves NN and radius search).
func WorkloadsFromTrace(batches []TraceBatch) []SimWorkload {
	return sim.WorkloadsFromTrace(batches)
}

// Feature stages.
type (
	// NormalConfig parameterizes normal estimation.
	NormalConfig = features.NormalConfig
	// KeypointConfig parameterizes key-point detection.
	KeypointConfig = features.KeypointConfig
	// DescriptorConfig parameterizes descriptor computation.
	DescriptorConfig = features.DescriptorConfig
)

// Registration pipeline.
type (
	// PipelineConfig is the full Tbl. 1 knob set.
	PipelineConfig = registration.PipelineConfig
	// SearcherConfig selects the search backend — by registry name
	// (Backend + Options) — and its Parallelism (the batch worker count
	// every query-dominated stage runs with; 0 = NumCPU, 1 = sequential).
	// Validate checks a boundary-supplied config before it reaches the
	// pipeline.
	SearcherConfig = registration.SearcherConfig
	// Result is the registration outcome with instrumentation.
	Result = registration.Result
	// ICPConfig parameterizes fine-tuning.
	ICPConfig = registration.ICPConfig
	// FrameError is the KITTI-style per-pair error.
	FrameError = registration.FrameError
	// SequenceError aggregates frame errors.
	SequenceError = registration.SequenceError
)

// Register estimates the transform mapping src onto dst.
func Register(src, dst *Cloud, cfg PipelineConfig) Result {
	return registration.Register(src, dst, cfg)
}

// Reusable registration stages. Register is PrepareFrame×2 + AlignFrames;
// streaming callers prepare each cloud once and reuse the state across
// consecutive pairs.
type (
	// PreparedFrame is one cloud's reusable front-end state (normals,
	// key-points, descriptors, search indexes).
	PreparedFrame = registration.PreparedFrame
)

// PrepareFrame runs the per-cloud front-end once, for reuse across pairs.
func PrepareFrame(c *Cloud, cfg PipelineConfig) *PreparedFrame {
	return registration.PrepareFrame(c, cfg)
}

// AlignFrames runs the pair-level back end (KPCE → rejection → ICP) on
// two prepared frames, estimating the transform mapping src onto dst.
func AlignFrames(src, dst *PreparedFrame, cfg PipelineConfig) Result {
	return registration.Align(src, dst, cfg)
}

// Streaming odometry engine.
type (
	// Stream is a long-running odometry session: frames are pushed one at
	// a time, each frame's front-end is computed once and reused when the
	// frame becomes the next pair's target, and (when pipelined) frame
	// N's front-end overlaps frame N−1's fine-tuning. For exact search
	// backends the trajectory is bit-identical to a per-pair Register
	// loop.
	Stream = stream.Engine
	// StreamConfig parameterizes a streaming session.
	StreamConfig = stream.Config
	// Trajectory is a session's accumulated poses and per-frame records.
	Trajectory = stream.Trajectory
	// StreamFrameResult is one frame's trajectory record.
	StreamFrameResult = stream.FrameResult
	// StreamStats counts a session's work (the build-once counters).
	StreamStats = stream.Stats
	// StreamLimiter caps concurrent heavy stages across sessions.
	StreamLimiter = stream.Limiter
)

// NewStream starts a streaming odometry session. Close it to stop the
// pipeline workers and release the last frame's state.
func NewStream(cfg StreamConfig) *Stream { return stream.New(cfg) }

// SLAM layer: loop closure + pose-graph optimization. A streaming
// session with StreamConfig.Loop set detects and verifies revisits
// (Stream.Closures) and serves the globally optimized trajectory
// (Stream.OptimizedPoses); the pieces are public for custom back-ends.
type (
	// LoopConfig parameterizes place recognition: the signature-index
	// search backend, temporal gating, and verification thresholds.
	LoopConfig = loop.Config
	// LoopCandidate is a proposed (unverified) loop pair.
	LoopCandidate = loop.Candidate
	// LoopClosure is a verified loop constraint: Delta registers frame
	// From onto frame To.
	LoopClosure = loop.Closure
	// LoopDetector aggregates frame signatures and proposes/verifies
	// loop candidates.
	LoopDetector = loop.Detector
	// LoopStats counts a detector's work.
	LoopStats = loop.Stats
	// PoseGraph is an SE(3) pose graph: node poses plus relative-pose
	// edges (odometry and loop closures).
	PoseGraph = posegraph.Graph
	// PoseGraphEdge is one relative-pose constraint X_I⁻¹∘X_J = Z.
	PoseGraphEdge = posegraph.Edge
	// PoseGraphOptions configures the Gauss–Newton/LM optimizer.
	PoseGraphOptions = posegraph.Options
	// PoseGraphResult reports an optimization run.
	PoseGraphResult = posegraph.Result
	// ATEResult is the absolute-trajectory-error summary.
	ATEResult = posegraph.ATEResult
	// RPEResult is the relative-pose-error summary.
	RPEResult = posegraph.RPEResult
)

// NewLoopDetector validates the configured signature backend and
// returns an empty place-recognition detector.
func NewLoopDetector(cfg LoopConfig) (*LoopDetector, error) { return loop.NewDetector(cfg) }

// NewPoseGraph starts a pose graph from initial absolute poses.
func NewPoseGraph(poses []Transform) *PoseGraph { return posegraph.NewGraph(poses) }

// PoseGraphFromOdometry builds a graph whose initial poses compose the
// odometry chain from origin, with one edge per step.
func PoseGraphFromOdometry(origin Transform, deltas []Transform) *PoseGraph {
	return posegraph.FromOdometry(origin, deltas)
}

// ATE computes the absolute trajectory error of est against ref after
// first-pose anchoring.
func ATE(est, ref []Transform) ATEResult { return posegraph.ATE(est, ref) }

// RPE computes the per-step relative pose error of est against ref.
func RPE(est, ref []Transform) RPEResult { return posegraph.RPE(est, ref) }

// NewStreamLimiter returns a limiter admitting n concurrent heavy stages
// (n <= 0: unlimited), shared across sessions via StreamConfig.Limiter.
func NewStreamLimiter(n int) StreamLimiter { return stream.NewLimiter(n) }

// EvaluatePair scores an estimated transform against ground truth.
func EvaluatePair(estimated, truth Transform) FrameError {
	return registration.EvaluatePair(estimated, truth)
}

// AggregateErrors summarizes per-frame errors.
func AggregateErrors(errs []FrameError) SequenceError {
	return registration.Aggregate(errs)
}

// DefaultPipelineConfig returns a balanced design point (the DSE base
// configuration) suitable for the synthetic LiDAR frames.
func DefaultPipelineConfig() PipelineConfig {
	dps := dse.NamedDesignPoints()
	return dps[4].Config // DP5: the balanced middle of the frontier
}

// Dataset generation.
type (
	// SequenceConfig configures synthetic sequence generation.
	SequenceConfig = synth.SequenceConfig
	// Sequence is a generated dataset (frames + ground-truth poses).
	Sequence = synth.Sequence
	// LidarConfig models the spinning multi-beam sensor.
	LidarConfig = synth.LidarConfig
	// SceneConfig controls procedural street generation.
	SceneConfig = synth.SceneConfig
	// CircuitTrajectory drives a closed circular lap — the ground-truth
	// loop the SLAM layer closes.
	CircuitTrajectory = synth.CircuitTrajectory
)

// DriftOdometry corrupts odometry deltas with a deterministic
// calibration-style bias (yaw radians and translation scale per frame),
// the synthetic drift model the SLAM benchmarks repair.
func DriftOdometry(deltas []Transform, yawRad, scale float64) []Transform {
	return synth.DriftDeltas(deltas, yawRad, scale)
}

// GenerateSequence renders LiDAR frames along a trajectory.
func GenerateSequence(cfg SequenceConfig) *Sequence { return synth.GenerateSequence(cfg) }

// QuickSequenceConfig returns a small, fast test-scale dataset config.
func QuickSequenceConfig(frames int, seed int64) SequenceConfig {
	return synth.QuickSequenceConfig(frames, seed)
}

// EvalSequenceConfig returns the experiment-scale dataset config
// (~18k points/frame).
func EvalSequenceConfig(frames int, seed int64) SequenceConfig {
	return synth.EvalSequenceConfig(frames, seed)
}

// Accelerator model.
type (
	// AccelConfig describes one accelerator instance (§5, §6.2).
	AccelConfig = sim.Config
	// AccelReport is a simulation outcome.
	AccelReport = sim.Report
	// SimWorkload is a batch of same-kind search queries.
	SimWorkload = sim.Workload
)

// Search kinds for SimWorkload.
const (
	NNSearch     = sim.NNSearch
	RadiusSearch = sim.RadiusSearch
)

// DefaultAccelConfig returns the paper's evaluated configuration (64 RUs,
// 32 SUs, 32 PEs/SU at 500 MHz).
func DefaultAccelConfig() AccelConfig { return sim.DefaultConfig() }

// Simulate executes the workload on the modeled accelerator.
func Simulate(tree *TwoStageTree, w SimWorkload, cfg AccelConfig) (*AccelReport, error) {
	return sim.Run(tree, w, cfg)
}

// Baselines.
type (
	// BaselineModel is a CPU/GPU throughput+power model.
	BaselineModel = baseline.Model
	// BaselineProfile summarizes a workload as visit counts.
	BaselineProfile = baseline.Profile
)

// GPUBaseline returns the RTX 2080 Ti model (paper §6.1).
func GPUBaseline() BaselineModel { return baseline.RTX2080Ti }

// CPUBaseline returns the Xeon 4110 model (paper §6.1).
func CPUBaseline() BaselineModel { return baseline.Xeon4110 }

// ProfileCanonicalSearch replays the workload on a canonical KD-tree.
func ProfileCanonicalSearch(t *KDTree, w SimWorkload) BaselineProfile {
	return baseline.ProfileCanonical(t, w)
}

// ProfileCanonicalSearchParallel replays the workload on a canonical
// KD-tree over a worker pool (<= 0 selects NumCPU); the profile is
// identical to the sequential replay.
func ProfileCanonicalSearchParallel(t *KDTree, w SimWorkload, parallelism int) BaselineProfile {
	return baseline.ProfileCanonicalParallel(t, w, parallelism)
}

// ProfileTwoStageSearch replays the workload on a two-stage tree.
func ProfileTwoStageSearch(t *TwoStageTree, w SimWorkload) BaselineProfile {
	return baseline.ProfileTwoStage(t, w)
}

// ProfileTwoStageSearchParallel replays the workload on a two-stage tree
// over a worker pool (<= 0 selects NumCPU).
func ProfileTwoStageSearchParallel(t *TwoStageTree, w SimWorkload, parallelism int) BaselineProfile {
	return baseline.ProfileTwoStageParallel(t, w, parallelism)
}

// Design-space exploration.
type (
	// DesignPoint names one pipeline configuration.
	DesignPoint = dse.DesignPoint
	// EvaluatedDesignPoint is one design point's measured outcome.
	EvaluatedDesignPoint = dse.Evaluated
)

// NamedDesignPoints returns the paper's Pareto points DP1–DP8.
func NamedDesignPoints() []DesignPoint { return dse.NamedDesignPoints() }

// EvaluateDesignPoint runs a design point over a sequence.
func EvaluateDesignPoint(seq *Sequence, dp DesignPoint) EvaluatedDesignPoint {
	return dse.Evaluate(seq, dp)
}
