// Package synth is the dataset substrate: a procedural urban scene plus a
// spinning multi-beam LiDAR model that together substitute for the KITTI
// Odometry dataset used by the paper (§6.1).
//
// KITTI frames come from a Velodyne HDL-64E: 64 laser beams spinning at
// 10 Hz, ~130k points per revolution, dominated by a ground plane, building
// facades, poles, and parked vehicles, with range noise of a few
// centimeters. This package ray-casts exactly that structure against a
// procedurally generated street scene and returns frames in the sensor
// coordinate system together with ground-truth poses, so the KITTI-style
// translational (%) and rotational (deg/m) error metrics are computable.
// See README "Substitutions", 1.
package synth

import (
	"math"

	"tigris/internal/geom"
)

// primitive is anything a LiDAR ray can hit.
type primitive interface {
	// intersect returns the smallest t > 0 with origin + t·dir on the
	// surface, and whether such t exists. dir is unit length.
	intersect(origin, dir geom.Vec3) (float64, bool)
}

// groundPlane is the z = Height plane (infinite extent).
type groundPlane struct {
	Height float64
}

func (g groundPlane) intersect(origin, dir geom.Vec3) (float64, bool) {
	if math.Abs(dir.Z) < 1e-12 {
		return 0, false
	}
	t := (g.Height - origin.Z) / dir.Z
	if t <= 1e-9 {
		return 0, false
	}
	return t, true
}

// box is an axis-aligned solid; rays hit its surface (slab method).
type box struct {
	B geom.Aabb
}

func (b box) intersect(origin, dir geom.Vec3) (float64, bool) {
	tmin := math.Inf(-1)
	tmax := math.Inf(1)
	for axis := 0; axis < 3; axis++ {
		o := origin.Component(axis)
		d := dir.Component(axis)
		lo := b.B.Min.Component(axis)
		hi := b.B.Max.Component(axis)
		if math.Abs(d) < 1e-12 {
			if o < lo || o > hi {
				return 0, false
			}
			continue
		}
		t1 := (lo - o) / d
		t2 := (hi - o) / d
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t1 > tmin {
			tmin = t1
		}
		if t2 < tmax {
			tmax = t2
		}
		if tmin > tmax {
			return 0, false
		}
	}
	if tmax <= 1e-9 {
		return 0, false
	}
	if tmin > 1e-9 {
		return tmin, true
	}
	// Origin inside the box: report the exit point.
	return tmax, true
}

// cylinder is a vertical capped cylinder (poles, tree trunks).
type cylinder struct {
	Center geom.Vec3 // center of the base
	Radius float64
	Height float64
}

func (c cylinder) intersect(origin, dir geom.Vec3) (float64, bool) {
	// Project to the XY plane: |o + t·d - c|² = r².
	ox := origin.X - c.Center.X
	oy := origin.Y - c.Center.Y
	a := dir.X*dir.X + dir.Y*dir.Y
	if a < 1e-15 {
		return 0, false // vertical ray; ignore cap hits for simplicity
	}
	b := 2 * (ox*dir.X + oy*dir.Y)
	cc := ox*ox + oy*oy - c.Radius*c.Radius
	disc := b*b - 4*a*cc
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	for _, t := range [2]float64{(-b - sq) / (2 * a), (-b + sq) / (2 * a)} {
		if t <= 1e-9 {
			continue
		}
		z := origin.Z + t*dir.Z
		if z >= c.Center.Z && z <= c.Center.Z+c.Height {
			return t, true
		}
	}
	return 0, false
}

// Scene is a collection of primitives a LiDAR can scan. Scenes are
// generated deterministically from a seed so every experiment is
// reproducible.
type Scene struct {
	prims []primitive
}

// Raycast finds the nearest surface along the ray within maxRange.
func (s *Scene) Raycast(origin, dir geom.Vec3, maxRange float64) (float64, bool) {
	best := maxRange
	hit := false
	for _, p := range s.prims {
		if t, ok := p.intersect(origin, dir); ok && t < best {
			best = t
			hit = true
		}
	}
	return best, hit
}

// SceneConfig controls procedural street generation.
type SceneConfig struct {
	Seed int64
	// Length of the street corridor along +X in meters (default 240).
	Length float64
	// HalfWidth is the distance from the street center line to the
	// building facades (default 12 m).
	HalfWidth float64
	// BuildingDensity in buildings per 10 m of street per side (default 0.8).
	BuildingDensity float64
	// PoleSpacing between street-side poles in meters (default 18).
	PoleSpacing float64
	// CarDensity in parked cars per 10 m per side (default 0.35).
	CarDensity float64
}

func (c *SceneConfig) defaults() {
	if c.Length == 0 {
		c.Length = 240
	}
	if c.HalfWidth == 0 {
		c.HalfWidth = 12
	}
	if c.BuildingDensity == 0 {
		c.BuildingDensity = 0.8
	}
	if c.PoleSpacing == 0 {
		c.PoleSpacing = 18
	}
	if c.CarDensity == 0 {
		c.CarDensity = 0.35
	}
}

// generateScene builds a deterministic street scene: ground plane, building
// facades lining both sides, poles, and parked cars. The mix mirrors what a
// KITTI residential/road sequence contains, which is what gives LiDAR
// clouds their characteristic structure: a huge dense ground region plus
// vertical structure at mid ranges.
func generateScene(cfg SceneConfig) *Scene {
	cfg.defaults()
	rng := newSplitMix(uint64(cfg.Seed)*2654435761 + 12345)

	s := &Scene{}
	s.prims = append(s.prims, groundPlane{Height: 0})

	// Buildings: axis-aligned boxes hugging both facade lines, with random
	// footprints, gaps, and heights. The corridor extends a bit behind the
	// start so early frames see structure in every direction.
	for side := 0; side < 2; side++ {
		ysign := 1.0
		if side == 1 {
			ysign = -1.0
		}
		x := -40.0
		for x < cfg.Length {
			gap := 2 + rng.float()*10/(cfg.BuildingDensity+0.01)
			width := 8 + rng.float()*18
			depth := 6 + rng.float()*10
			height := 5 + rng.float()*18
			setback := rng.float() * 3
			yNear := (cfg.HalfWidth + setback) * ysign
			yFar := yNear + depth*ysign
			lo := geom.Vec3{X: x, Y: math.Min(yNear, yFar), Z: 0}
			hi := geom.Vec3{X: x + width, Y: math.Max(yNear, yFar), Z: height}
			s.prims = append(s.prims, box{B: geom.Aabb{Min: lo, Max: hi}})
			x += width + gap
		}
	}

	// Poles: thin cylinders just inside the facade line.
	for side := 0; side < 2; side++ {
		ysign := 1.0
		if side == 1 {
			ysign = -1.0
		}
		for x := -30.0; x < cfg.Length; x += cfg.PoleSpacing {
			jitter := (rng.float() - 0.5) * 4
			s.prims = append(s.prims, cylinder{
				Center: geom.Vec3{X: x + jitter, Y: (cfg.HalfWidth - 1.5) * ysign, Z: 0},
				Radius: 0.12 + rng.float()*0.1,
				Height: 5 + rng.float()*3,
			})
		}
	}

	// Parked cars: boxes roughly 4.2×1.8×1.5 near the curbs.
	for side := 0; side < 2; side++ {
		ysign := 1.0
		if side == 1 {
			ysign = -1.0
		}
		x := -30.0
		for x < cfg.Length {
			gap := 3 + rng.float()*10/(cfg.CarDensity+0.01)
			if rng.float() < 0.7 {
				cx := x
				cy := (cfg.HalfWidth - 3.2) * ysign
				lo := geom.Vec3{X: cx, Y: cy - 0.9, Z: 0.15}
				hi := geom.Vec3{X: cx + 4.2, Y: cy + 0.9, Z: 1.6}
				s.prims = append(s.prims, box{B: geom.Aabb{Min: lo, Max: hi}})
			}
			x += 4.2 + gap
		}
	}

	return s
}

// splitMix is a tiny deterministic PRNG (SplitMix64) used for scene
// generation and sensor noise so that frames are reproducible across
// platforms without importing math/rand state semantics.
type splitMix struct {
	state uint64
}

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitMix) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// gaussian returns a standard normal sample (Box–Muller).
func (s *splitMix) gaussian() float64 {
	u1 := s.float()
	for u1 == 0 {
		u1 = s.float()
	}
	u2 := s.float()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
