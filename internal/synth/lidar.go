package synth

import (
	"math"

	"tigris/internal/cloud"
	"tigris/internal/geom"
)

// LidarConfig describes the spinning multi-beam sensor. Defaults model a
// Velodyne HDL-64E (the KITTI sensor, paper §6.1): 64 beams spanning +2°
// to -24.8° vertically, 360° azimuth sweep, ~120 m range, centimeter-level
// range noise.
type LidarConfig struct {
	// Beams is the number of vertical channels (default 64).
	Beams int
	// AzimuthSteps is the number of horizontal samples per revolution
	// (default 900, i.e. 0.4° resolution; the real sensor is ~0.17°, but
	// the default keeps frames around 35k points so tests and examples run
	// quickly. Raise it to ~2000 for full 130k-point frames).
	AzimuthSteps int
	// VertFOVUp and VertFOVDown are the beam elevation limits in degrees
	// (defaults +2.0 and -24.8).
	VertFOVUp, VertFOVDown float64
	// MaxRange in meters (default 120).
	MaxRange float64
	// RangeNoiseStd is the 1σ Gaussian range noise in meters (default 0.02).
	RangeNoiseStd float64
	// MountHeight is the sensor height above the vehicle origin in meters
	// (default 1.73, the HDL-64E mount height on the KITTI car).
	MountHeight float64
	// Seed drives the per-frame noise stream.
	Seed int64
}

func (c *LidarConfig) defaults() {
	if c.Beams == 0 {
		c.Beams = 64
	}
	if c.AzimuthSteps == 0 {
		c.AzimuthSteps = 900
	}
	if c.VertFOVUp == 0 && c.VertFOVDown == 0 {
		c.VertFOVUp = 2.0
		c.VertFOVDown = -24.8
	}
	if c.MaxRange == 0 {
		c.MaxRange = 120
	}
	if c.RangeNoiseStd == 0 {
		c.RangeNoiseStd = 0.02
	}
	if c.MountHeight == 0 {
		c.MountHeight = 1.73
	}
}

// Lidar scans a Scene from arbitrary poses.
type Lidar struct {
	cfg   LidarConfig
	scene *Scene
}

// NewLidar binds a sensor configuration to a scene.
func NewLidar(scene *Scene, cfg LidarConfig) *Lidar {
	cfg.defaults()
	return &Lidar{cfg: cfg, scene: scene}
}

// Scan captures one revolution from the given vehicle pose (vehicle → world
// transform) and returns the point cloud in the sensor frame, which is how
// real LiDAR drivers and KITTI deliver data. frameIndex decorrelates the
// noise stream between frames.
func (l *Lidar) Scan(pose geom.Transform, frameIndex int) *cloud.Cloud {
	cfg := l.cfg
	rng := newSplitMix(uint64(cfg.Seed)*0x9e3779b9 + uint64(frameIndex)*0x85ebca6b + 7)

	sensorOrigin := pose.Apply(geom.Vec3{Z: cfg.MountHeight})
	out := cloud.New(cfg.Beams * cfg.AzimuthSteps / 2)

	invPose := pose.Inverse()
	for beam := 0; beam < cfg.Beams; beam++ {
		frac := 0.0
		if cfg.Beams > 1 {
			frac = float64(beam) / float64(cfg.Beams-1)
		}
		elevDeg := cfg.VertFOVUp + frac*(cfg.VertFOVDown-cfg.VertFOVUp)
		elev := elevDeg * math.Pi / 180
		cosE, sinE := math.Cos(elev), math.Sin(elev)
		for step := 0; step < cfg.AzimuthSteps; step++ {
			az := 2 * math.Pi * float64(step) / float64(cfg.AzimuthSteps)
			// Direction in the vehicle frame, rotated to world by the pose.
			dirVehicle := geom.Vec3{
				X: cosE * math.Cos(az),
				Y: cosE * math.Sin(az),
				Z: sinE,
			}
			dirWorld := pose.ApplyDirection(dirVehicle)
			dist, ok := l.scene.Raycast(sensorOrigin, dirWorld, cfg.MaxRange)
			if !ok {
				continue
			}
			dist += rng.gaussian() * cfg.RangeNoiseStd
			if dist <= 0.5 { // discard self-returns
				continue
			}
			hitWorld := sensorOrigin.Add(dirWorld.Scale(dist))
			// Deliver in the vehicle/sensor frame.
			out.Points = append(out.Points, invPose.Apply(hitWorld))
		}
	}
	return out
}
