package synth

import (
	"math"

	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// Trajectory produces the vehicle pose (vehicle → world) at frame index i.
// Implementations must be deterministic.
type Trajectory interface {
	Pose(i int) geom.Transform
}

// DrivingTrajectory is a smooth forward drive down the street corridor with
// a gentle sinusoidal lane weave and yaw. It mimics the dominant motion
// pattern of the KITTI odometry car: mostly-forward translation around
// 0.5–1.5 m/frame with small rotations.
type DrivingTrajectory struct {
	// Speed is meters per frame along +X (default 1.0, i.e. ~36 km/h at
	// 10 Hz).
	Speed float64
	// WeaveAmplitude is lateral weave amplitude in meters (default 0.8).
	WeaveAmplitude float64
	// WeavePeriod is the weave period in frames (default 60).
	WeavePeriod float64
}

func (d DrivingTrajectory) params() (speed, amp, period float64) {
	speed = d.Speed
	if speed == 0 {
		speed = 1.0
	}
	amp = d.WeaveAmplitude
	if amp == 0 {
		amp = 0.8
	}
	period = d.WeavePeriod
	if period == 0 {
		period = 60
	}
	return speed, amp, period
}

// Pose implements Trajectory.
func (d DrivingTrajectory) Pose(i int) geom.Transform {
	speed, amp, period := d.params()
	t := float64(i)
	x := speed * t
	y := amp * math.Sin(2*math.Pi*t/period)
	// Heading follows the path tangent: dy/dx = amp·(2π/period)·cos(...) / speed.
	yaw := math.Atan2(amp*2*math.Pi/period*math.Cos(2*math.Pi*t/period), speed)
	return geom.Transform{
		R: geom.RotZ(yaw),
		T: geom.Vec3{X: x, Y: y, Z: 0},
	}
}

// CircuitTrajectory is a closed circular circuit inside the street: the
// vehicle drives one (or more) full laps and returns to its starting
// pose with the same heading, which is exactly the geometry a
// loop-closure detector needs — late frames are true revisits of early
// ones. The circle stays inside the facade lines for the default scene
// width, so every frame scans real structure.
type CircuitTrajectory struct {
	// Radius of the circuit in meters (default 4; keep below the scene's
	// HalfWidth/2 so the vehicle stays on the street).
	Radius float64
	// FramesPerLap is the number of frames per full revolution (default
	// 40).
	FramesPerLap int
	// CenterX shifts the circuit along the street (default 0: the lap
	// starts at the origin heading +X and curls left).
	CenterX float64
}

func (c CircuitTrajectory) params() (r float64, perLap int, cx float64) {
	r = c.Radius
	if r == 0 {
		r = 4
	}
	perLap = c.FramesPerLap
	if perLap == 0 {
		perLap = 40
	}
	// CenterX needs no default: zero means the lap starts at the origin.
	return r, perLap, c.CenterX
}

// Pose implements Trajectory: frame i sits at angle 2π·i/FramesPerLap
// around the circle, heading along the tangent. Pose(FramesPerLap) is
// exactly Pose(0) — the ground-truth loop.
func (c CircuitTrajectory) Pose(i int) geom.Transform {
	r, perLap, cx := c.params()
	theta := 2 * math.Pi * float64(i) / float64(perLap)
	return geom.Transform{
		R: geom.RotZ(theta),
		T: geom.Vec3{X: cx + r*math.Sin(theta), Y: r - r*math.Cos(theta), Z: 0},
	}
}

// DriftDeltas applies a deterministic drift model to a sequence of
// odometry deltas, simulating the calibration-style error that
// accumulates unboundedly in pairwise odometry (the failure mode loop
// closure + pose-graph optimization exist to fix): every step's
// translation is scaled by scale and its rotation is pre-multiplied by a
// yaw bias of yawRad radians. The input is not modified.
func DriftDeltas(deltas []geom.Transform, yawRad, scale float64) []geom.Transform {
	if scale == 0 {
		scale = 1
	}
	bias := geom.RotZ(yawRad)
	out := make([]geom.Transform, len(deltas))
	for i, d := range deltas {
		out[i] = geom.Transform{R: bias.Mul(d.R), T: d.T.Scale(scale)}
	}
	return out
}

// Sequence is a generated dataset: frames in sensor coordinates plus
// ground-truth poses, mirroring the KITTI odometry layout.
type Sequence struct {
	Frames []*cloud.Cloud
	Poses  []geom.Transform
}

// SequenceConfig bundles everything needed to generate a sequence.
type SequenceConfig struct {
	Scene      SceneConfig
	Lidar      LidarConfig
	Trajectory Trajectory
	NumFrames  int
}

// GenerateSequence renders NumFrames LiDAR frames along the trajectory.
// A nil Trajectory defaults to DrivingTrajectory{}.
func GenerateSequence(cfg SequenceConfig) *Sequence {
	if cfg.NumFrames <= 0 {
		cfg.NumFrames = 2
	}
	if cfg.Trajectory == nil {
		cfg.Trajectory = DrivingTrajectory{}
	}
	scene := generateScene(cfg.Scene)
	lidar := newLidar(scene, cfg.Lidar)

	seq := &Sequence{
		Frames: make([]*cloud.Cloud, cfg.NumFrames),
		Poses:  make([]geom.Transform, cfg.NumFrames),
	}
	for i := 0; i < cfg.NumFrames; i++ {
		pose := cfg.Trajectory.Pose(i)
		seq.Poses[i] = pose
		seq.Frames[i] = lidar.Scan(pose, i)
	}
	return seq
}

// GroundTruthDelta returns the true transform that registers frame i+1's
// sensor frame onto frame i's sensor frame. With registration output M, a
// point X in frame i+1 maps to M·X in frame i; this is the matrix the
// pipeline is supposed to estimate (paper §2.2: registering consecutive
// frames yields the odometry step).
func (s *Sequence) GroundTruthDelta(i int) geom.Transform {
	return s.Poses[i].Inverse().Compose(s.Poses[i+1])
}

// Len returns the number of frames in the sequence.
func (s *Sequence) Len() int { return len(s.Frames) }

// EvalSequenceConfig returns the configuration the experiment drivers use:
// a 32-beam sensor at 0.6° azimuth resolution (~18k points/frame). Dense
// enough that voxel downsampling breaks the sensor-anchored ring pattern
// (as it does on real 64-beam KITTI frames) while keeping full-pipeline
// runs to well under a second per frame pair.
func EvalSequenceConfig(frames int, seed int64) SequenceConfig {
	return SequenceConfig{
		Scene: SceneConfig{Seed: seed, Length: 120},
		Lidar: LidarConfig{
			Beams:        32,
			AzimuthSteps: 600,
			Seed:         seed,
		},
		NumFrames: frames,
	}
}

// QuickSequenceConfig returns a configuration sized for fast tests and
// examples: a 16-beam, low-azimuth-resolution sensor over a short street,
// producing a few thousand points per frame. The structural mix (ground,
// facades, poles, cars) matches the full-size default.
func QuickSequenceConfig(frames int, seed int64) SequenceConfig {
	return SequenceConfig{
		Scene: SceneConfig{Seed: seed, Length: 120},
		Lidar: LidarConfig{
			Beams:        16,
			AzimuthSteps: 300,
			Seed:         seed,
		},
		NumFrames: frames,
	}
}
