package twostage_test

import (
	"math/rand"
	"testing"

	"tigris/internal/geom"
	"tigris/internal/sim"
	"tigris/internal/twostage"
)

// TestAcceleratorModelSeesTheSameTree: the accelerator model walks the
// top-tree and streams the leaf sets in their stored order, so its cycle
// and energy figures are a fingerprint of the whole structure. On a fixed
// query stream they must be equal for the presort-built tree and the
// sort-built reference, exact and approximate search alike.
func TestAcceleratorModelSeesTheSameTree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := make([]geom.Vec3, 6000)
	for i := range pts {
		// Coarse z so duplicate coordinates reach the leaf-feeding level.
		pts[i] = geom.V3(rng.Float64()*60, rng.Float64()*60, float64(rng.Intn(4)))
	}
	queries := make([]geom.Vec3, 400)
	for i := range queries {
		base := pts[rng.Intn(len(pts))]
		queries[i] = base.Add(geom.V3(rng.Float64()*0.5, rng.Float64()*0.5, rng.Float64()*0.5))
	}
	built := twostage.Build(pts, 6)
	reference := twostage.SortBuiltReference(append([]geom.Vec3(nil), pts...), 6)

	approx := sim.DefaultConfig()
	approx.Approx, approx.ApproxRadiusFrac = twostage.DefaultNNThreshold, twostage.DefaultRadiusThresholdFrac
	for _, tc := range []struct {
		name string
		w    sim.Workload
		cfg  sim.Config
	}{
		{"nn", sim.Workload{Kind: sim.NNSearch, Queries: queries}, sim.DefaultConfig()},
		{"radius", sim.Workload{Kind: sim.RadiusSearch, Queries: queries, Radius: 1.2}, sim.DefaultConfig()},
		{"nn-approx", sim.Workload{Kind: sim.NNSearch, Queries: queries}, approx},
		{"radius-approx", sim.Workload{Kind: sim.RadiusSearch, Queries: queries, Radius: 1.2}, approx},
	} {
		got, err := sim.Run(built, tc.w, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := sim.Run(reference, tc.w, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Cycles != want.Cycles {
			t.Errorf("%s: %d cycles on the presort-built tree, %d on the reference", tc.name, got.Cycles, want.Cycles)
		}
		if got.Energy != want.Energy {
			t.Errorf("%s: energy %+v on the presort-built tree, %+v on the reference", tc.name, got.Energy, want.Energy)
		}
		if got.Traffic != want.Traffic {
			t.Errorf("%s: traffic %+v on the presort-built tree, %+v on the reference", tc.name, got.Traffic, want.Traffic)
		}
	}
}
