package synth

import (
	"math"
	"sort"
	"testing"

	"tigris/internal/geom"
)

func TestGroundPlaneIntersect(t *testing.T) {
	g := groundPlane{Height: 0}
	// Ray from (0,0,2) pointing down at 45° in XZ.
	dir := geom.Vec3{X: 1, Z: -1}.Normalize()
	d, ok := g.intersect(geom.Vec3{Z: 2}, dir)
	if !ok {
		t.Fatal("expected hit")
	}
	if math.Abs(d-2*math.Sqrt2) > 1e-9 {
		t.Errorf("distance = %v", d)
	}
	// Horizontal ray misses.
	if _, ok := g.intersect(geom.Vec3{Z: 2}, geom.Vec3{X: 1}); ok {
		t.Error("horizontal ray should miss plane")
	}
	// Upward ray misses.
	if _, ok := g.intersect(geom.Vec3{Z: 2}, geom.Vec3{Z: 1}); ok {
		t.Error("upward ray should miss ground")
	}
}

func TestBoxIntersect(t *testing.T) {
	b := box{B: geom.Aabb{Min: geom.Vec3{X: 2, Y: -1, Z: 0}, Max: geom.Vec3{X: 4, Y: 1, Z: 2}}}
	d, ok := b.intersect(geom.Vec3{Z: 1}, geom.Vec3{X: 1})
	if !ok || math.Abs(d-2) > 1e-9 {
		t.Fatalf("front face hit = %v, %v", d, ok)
	}
	// Miss above.
	if _, ok := b.intersect(geom.Vec3{Z: 5}, geom.Vec3{X: 1}); ok {
		t.Error("ray above box should miss")
	}
	// Ray pointing away.
	if _, ok := b.intersect(geom.Vec3{Z: 1}, geom.Vec3{X: -1}); ok {
		t.Error("ray pointing away should miss")
	}
	// Origin inside: reports exit.
	d, ok = b.intersect(geom.Vec3{X: 3, Y: 0, Z: 1}, geom.Vec3{X: 1})
	if !ok || math.Abs(d-1) > 1e-9 {
		t.Errorf("inside-box exit = %v, %v", d, ok)
	}
}

func TestCylinderIntersect(t *testing.T) {
	c := cylinder{Center: geom.Vec3{X: 5}, Radius: 1, Height: 4}
	d, ok := c.intersect(geom.Vec3{Z: 1}, geom.Vec3{X: 1})
	if !ok || math.Abs(d-4) > 1e-9 {
		t.Fatalf("cylinder hit = %v, %v", d, ok)
	}
	// Above the cap: miss.
	if _, ok := c.intersect(geom.Vec3{Z: 10}, geom.Vec3{X: 1}); ok {
		t.Error("ray above cylinder should miss")
	}
	// Tangent-ish offset ray misses.
	if _, ok := c.intersect(geom.Vec3{Y: 3, Z: 1}, geom.Vec3{X: 1}); ok {
		t.Error("offset ray should miss")
	}
	// Vertical ray is ignored by design.
	if _, ok := c.intersect(geom.Vec3{X: 5, Z: 10}, geom.Vec3{Z: -1}); ok {
		t.Error("vertical ray should be ignored")
	}
}

func TestSceneDeterminism(t *testing.T) {
	a := GenerateScene(SceneConfig{Seed: 42})
	b := GenerateScene(SceneConfig{Seed: 42})
	if len(a.prims) != len(b.prims) {
		t.Fatalf("same seed produced %d vs %d primitives", len(a.prims), len(b.prims))
	}
	c := GenerateScene(SceneConfig{Seed: 43})
	// Different seeds should (overwhelmingly) differ somewhere; compare a
	// raycast fingerprint.
	origin := geom.Vec3{Z: 1.7}
	same := true
	for az := 0.0; az < 2*math.Pi; az += 0.1 {
		dir := geom.Vec3{X: math.Cos(az), Y: math.Sin(az), Z: -0.05}.Normalize()
		da, oka := a.Raycast(origin, dir, 120)
		dc, okc := c.Raycast(origin, dir, 120)
		if oka != okc || math.Abs(da-dc) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical raycast fingerprints")
	}
}

func TestSceneRaycastHitsGround(t *testing.T) {
	s := GenerateScene(SceneConfig{Seed: 1})
	// Steep downward ray must hit the ground (or something nearer).
	d, ok := s.Raycast(geom.Vec3{Z: 1.7}, geom.Vec3{X: 0.1, Z: -1}.Normalize(), 120)
	if !ok {
		t.Fatal("downward ray should hit")
	}
	if d > 3 {
		t.Errorf("downward hit at %v m, expected under 3 m", d)
	}
}

func TestLidarScanProducesPlausibleFrame(t *testing.T) {
	scene := GenerateScene(SceneConfig{Seed: 7, Length: 120})
	lidar := NewLidar(scene, LidarConfig{Beams: 16, AzimuthSteps: 300, Seed: 7})
	frame := lidar.Scan(geom.IdentityTransform(), 0)
	if frame.Len() < 1000 {
		t.Fatalf("frame too sparse: %d points", frame.Len())
	}
	if err := frame.Validate(); err != nil {
		t.Fatal(err)
	}
	// All points within max range of the sensor (at the mount height).
	sensor := geom.Vec3{Z: lidar.cfg.MountHeight}
	for _, p := range frame.Points {
		if p.Dist(sensor) > lidar.cfg.MaxRange+1 {
			t.Fatalf("point %v beyond max range", p)
		}
	}
	// The ground should dominate: a large fraction of points near z ≈
	// -MountHeight in the sensor frame... but points are in vehicle frame
	// with ground at z=0. Count points near the ground plane.
	ground := 0
	for _, p := range frame.Points {
		if math.Abs(p.Z) < 0.15 {
			ground++
		}
	}
	if frac := float64(ground) / float64(frame.Len()); frac < 0.2 {
		t.Errorf("ground fraction = %.2f, expected LiDAR frames to be ground-dominated", frac)
	}
}

func TestLidarDeterministicPerFrameIndex(t *testing.T) {
	scene := GenerateScene(SceneConfig{Seed: 3})
	lidar := NewLidar(scene, LidarConfig{Beams: 8, AzimuthSteps: 100, Seed: 3})
	a := lidar.Scan(geom.IdentityTransform(), 5)
	b := lidar.Scan(geom.IdentityTransform(), 5)
	if a.Len() != b.Len() {
		t.Fatal("same frame index produced different point counts")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("same frame index produced different points")
		}
	}
	c := lidar.Scan(geom.IdentityTransform(), 6)
	if a.Len() == c.Len() {
		identical := true
		for i := range a.Points {
			if a.Points[i] != c.Points[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different frame indices produced identical noise")
		}
	}
}

func TestDrivingTrajectorySmooth(t *testing.T) {
	tr := DrivingTrajectory{}
	for i := 0; i < 100; i++ {
		p0 := tr.Pose(i)
		p1 := tr.Pose(i + 1)
		delta := p0.Inverse().Compose(p1)
		step := delta.TranslationNorm()
		if step < 0.5 || step > 2.0 {
			t.Fatalf("frame %d: step %v m out of plausible range", i, step)
		}
		if delta.RotationAngle() > 0.2 {
			t.Fatalf("frame %d: rotation %v rad too large", i, delta.RotationAngle())
		}
	}
}

func TestGroundTruthDeltaConsistency(t *testing.T) {
	seq := GenerateSequence(QuickSequenceConfig(3, 11))
	if seq.Len() != 3 {
		t.Fatalf("Len = %d", seq.Len())
	}
	// Composing pose(i) with the delta must give pose(i+1).
	for i := 0; i < 2; i++ {
		composed := seq.Poses[i].Compose(seq.GroundTruthDelta(i))
		if !composed.NearlyEqual(seq.Poses[i+1], 1e-9) {
			t.Fatalf("delta composition mismatch at frame %d", i)
		}
	}
}

func TestGroundTruthDeltaAlignsFrames(t *testing.T) {
	// Key property used by every registration experiment: applying the
	// ground-truth delta to frame i+1's points expresses them in frame i's
	// coordinate system, i.e. a noiseless static scene would overlap.
	cfg := QuickSequenceConfig(2, 5)
	cfg.Lidar.RangeNoiseStd = 1e-9 // effectively noise-free
	seq := GenerateSequence(cfg)
	delta := seq.GroundTruthDelta(0)
	moved := seq.Frames[1].Transform(delta)

	// The ground plane and the street-parallel facades slide along
	// themselves under forward motion, so unaligned frames trivially
	// overlap there. Check the alignment on *structure* points (above the
	// ground, near the sensor) where residuals are informative, and verify
	// that a deliberately wrong transform scores much worse.
	medianNN := func(pts []geom.Vec3) float64 {
		var ds []float64
		for i := 0; i < len(pts); i += 17 {
			p := pts[i]
			if p.Norm() > 25 || math.Abs(p.Z) < 0.3 {
				continue
			}
			best := math.Inf(1)
			for _, q := range seq.Frames[0].Points {
				if d := p.Dist2(q); d < best {
					best = d
				}
			}
			ds = append(ds, math.Sqrt(best))
		}
		sort.Float64s(ds)
		return ds[len(ds)/2]
	}
	aligned := medianNN(moved.Points)
	if aligned > 0.3 {
		t.Errorf("median aligned structure residual = %.3f m, expected near-overlap", aligned)
	}
	wrongDelta := geom.Transform{R: delta.R, T: delta.T.Add(geom.Vec3{Y: 2})}
	misaligned := medianNN(seq.Frames[1].Transform(wrongDelta).Points)
	if misaligned < aligned*2 {
		t.Errorf("wrong transform should score much worse: aligned %.3f vs wrong %.3f", aligned, misaligned)
	}
}

func TestSplitMixDistribution(t *testing.T) {
	rng := newSplitMix(99)
	var sum, sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := rng.gaussian()
		sum += g
		sum2 += g * g
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("gaussian mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("gaussian variance = %v", variance)
	}
	// Uniform sanity.
	rng2 := newSplitMix(7)
	for i := 0; i < 1000; i++ {
		f := rng2.float()
		if f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
	}
}

func TestSceneConfigKnobs(t *testing.T) {
	base := GenerateScene(SceneConfig{Seed: 1})
	dense := GenerateScene(SceneConfig{Seed: 1, CarDensity: 3, PoleSpacing: 6, BuildingDensity: 2})
	if len(dense.prims) <= len(base.prims) {
		t.Errorf("denser knobs produced %d primitives vs base %d", len(dense.prims), len(base.prims))
	}
	long := GenerateScene(SceneConfig{Seed: 1, Length: 500})
	if len(long.prims) <= len(base.prims) {
		t.Error("longer street should have more primitives")
	}
}

func TestEvalSequenceConfigScale(t *testing.T) {
	seq := GenerateSequence(EvalSequenceConfig(2, 77))
	if seq.Frames[0].Len() < 10000 {
		t.Errorf("eval frames too sparse: %d points", seq.Frames[0].Len())
	}
	if err := seq.Frames[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLidarBeamGeometry(t *testing.T) {
	// Beam elevations must span the configured FOV: the top beam looks
	// slightly up (hits tall facades), the bottom steeply down (hits
	// ground near the vehicle).
	scene := GenerateScene(SceneConfig{Seed: 2})
	lidar := NewLidar(scene, LidarConfig{Beams: 4, AzimuthSteps: 90, Seed: 2, RangeNoiseStd: 1e-9})
	frame := lidar.Scan(geom.IdentityTransform(), 0)
	var minZ, maxZ float64
	for i, p := range frame.Points {
		if i == 0 {
			minZ, maxZ = p.Z, p.Z
			continue
		}
		minZ = math.Min(minZ, p.Z)
		maxZ = math.Max(maxZ, p.Z)
	}
	if minZ > 0.2 {
		t.Errorf("no near-ground returns: minZ = %v", minZ)
	}
	if maxZ < 2 {
		t.Errorf("no elevated returns: maxZ = %v", maxZ)
	}
}

func TestTrajectoryCustomSpeed(t *testing.T) {
	fast := DrivingTrajectory{Speed: 2.5}
	d := fast.Pose(0).Inverse().Compose(fast.Pose(1))
	if math.Abs(d.TranslationNorm()-2.5) > 0.3 {
		t.Errorf("speed 2.5 produced step %v", d.TranslationNorm())
	}
}
