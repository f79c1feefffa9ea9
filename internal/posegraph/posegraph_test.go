package posegraph

import (
	"math"
	"testing"

	"tigris/internal/geom"
)

// driftedChain builds a ground-truth circular trajectory of n poses plus
// a drifted odometry estimate of it: every true step is corrupted by a
// fixed yaw bias and translation scale, the classic accumulating-drift
// model.
func driftedChain(n int, yawBias, scale float64) (truth, deltas []geom.Transform) {
	truth = make([]geom.Transform, n)
	truth[0] = geom.IdentityTransform()
	step := geom.Transform{R: geom.RotZ(2 * math.Pi / float64(n-1)), T: geom.Vec3{X: 0.5}}
	for k := 1; k < n; k++ {
		truth[k] = truth[k-1].Compose(step)
	}
	bias := geom.Transform{R: geom.RotZ(yawBias), T: geom.Vec3{}}
	for k := 0; k+1 < n; k++ {
		d := truth[k].Inverse().Compose(truth[k+1])
		d.T = d.T.Scale(scale)
		deltas = append(deltas, bias.Compose(d))
	}
	return truth, deltas
}

func TestOptimizeClosesDriftedLoop(t *testing.T) {
	truth, deltas := driftedChain(40, 0.004, 1.03)
	g := FromOdometry(geom.IdentityTransform(), deltas)
	// The loop edge: the true relative pose between the last and first
	// frames (what a verified loop closure supplies), weighted above the
	// odometry edges.
	loopZ := truth[0].Inverse().Compose(truth[len(truth)-1])
	g.AddEdge(Edge{I: 0, J: len(truth) - 1, Z: loopZ, TransWeight: 20, RotWeight: 20, Robust: true})

	before := ATE(g.Poses, truth)
	opt, res, err := g.Optimize(Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := ATE(opt, truth)
	if res.FinalCost >= res.InitialCost {
		t.Errorf("cost did not decrease: %g -> %g", res.InitialCost, res.FinalCost)
	}
	if after.RMSE >= 0.6*before.RMSE {
		t.Errorf("ATE RMSE %.4f m -> %.4f m: want at least a 40%% reduction", before.RMSE, after.RMSE)
	}
	if res.FinalCost > 1e-2*res.InitialCost {
		t.Errorf("cost %g -> %g: expected near-complete convergence", res.InitialCost, res.FinalCost)
	}
	// The anchor must not move.
	if opt[0] != g.Poses[0] {
		t.Errorf("node 0 moved: %v", opt[0])
	}
	// Local consistency must survive: the worst per-step translation
	// error stays within a small factor of the odometry's (the optimizer
	// redistributes error, it does not shred the chain).
	worstStep := func(est []geom.Transform) (worst float64) {
		for k := 0; k+1 < len(est); k++ {
			de := est[k].Inverse().Compose(est[k+1])
			dr := truth[k].Inverse().Compose(truth[k+1])
			worst = math.Max(worst, de.T.Sub(dr.T).Norm())
		}
		return worst
	}
	if before, after := worstStep(g.Poses), worstStep(opt); after > 3*before+1e-9 {
		t.Errorf("per-step error degraded: %.5f -> %.5f", before, after)
	}
}

// TestOptimizeGoldenDeterminism asserts the bit-identity contract: the
// optimized trajectory is the same, float for float, across repeated
// runs and across every Parallelism setting.
func TestOptimizeGoldenDeterminism(t *testing.T) {
	truth, deltas := driftedChain(25, 0.006, 1.05)
	build := func() *Graph {
		g := FromOdometry(geom.IdentityTransform(), deltas)
		loopZ := truth[0].Inverse().Compose(truth[len(truth)-1])
		g.AddEdge(Edge{I: 0, J: len(truth) - 1, Z: loopZ, TransWeight: 10, RotWeight: 10, Robust: true})
		// A mid-trajectory loop too, so the sparsity pattern is non-trivial.
		midZ := truth[5].Inverse().Compose(truth[20])
		g.AddEdge(Edge{I: 5, J: 20, Z: midZ, TransWeight: 10, RotWeight: 10, Robust: true})
		return g
	}

	golden, goldenRes, err := build().Optimize(Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 8, 0} {
		got, gotRes, err := build().Optimize(Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if gotRes.FinalCost != goldenRes.FinalCost || gotRes.Iterations != goldenRes.Iterations {
			t.Fatalf("parallelism %d: run stats diverged: %+v vs %+v", p, gotRes, goldenRes)
		}
		for k := range golden {
			if got[k] != golden[k] {
				t.Fatalf("parallelism %d: pose %d differs:\n got %v\nwant %v", p, k, got[k], golden[k])
			}
		}
	}
}

func TestOptimizeLeavesConsistentGraphAlone(t *testing.T) {
	truth, _ := driftedChain(12, 0, 1)
	deltas := make([]geom.Transform, len(truth)-1)
	for k := range deltas {
		deltas[k] = truth[k].Inverse().Compose(truth[k+1])
	}
	g := FromOdometry(geom.IdentityTransform(), deltas)
	g.AddEdge(Edge{I: 0, J: len(truth) - 1, Z: truth[0].Inverse().Compose(truth[len(truth)-1])})
	opt, res, err := g.Optimize(Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialCost > 1e-12 {
		t.Fatalf("consistent graph has initial cost %g", res.InitialCost)
	}
	for k := range opt {
		if !opt[k].NearlyEqual(g.Poses[k], 1e-9) {
			t.Fatalf("pose %d moved on a consistent graph", k)
		}
	}
}

func TestOptimizeValidation(t *testing.T) {
	g := NewGraph([]geom.Transform{geom.IdentityTransform(), geom.IdentityTransform()})
	g.AddEdge(Edge{I: 0, J: 5, Z: geom.IdentityTransform()})
	if _, _, err := g.Optimize(Options{}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	empty := NewGraph(nil)
	if _, _, err := empty.Optimize(Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	single := NewGraph([]geom.Transform{geom.IdentityTransform()})
	if _, _, err := single.Optimize(Options{}); err != nil {
		t.Fatalf("single node: %v", err)
	}
}

// TestATEAndRPE covers ATE alone since RPE, which had no caller but
// tests, was deleted.
func TestATEAndRPE(t *testing.T) {
	truth, _ := driftedChain(10, 0, 1)
	// Identical trajectories: zero errors.
	ate := ATE(truth, truth)
	if ate.RMSE != 0 || ate.Max != 0 || ate.Frames != 10 {
		t.Fatalf("self ATE = %+v", ate)
	}
	// A constant offset on every pose vanishes under first-pose anchoring.
	shifted := make([]geom.Transform, len(truth))
	off := geom.Transform{R: geom.RotZ(0.3), T: geom.Vec3{X: 5, Y: -2}}
	for k := range truth {
		shifted[k] = off.Compose(truth[k])
	}
	if got := ATE(shifted, truth).RMSE; got > 1e-9 {
		t.Fatalf("anchored ATE of shifted trajectory = %g", got)
	}
}
