package loop

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"tigris/internal/cloud"
	"tigris/internal/dse"
	"tigris/internal/registration"
)

// referenceVerify is the verification Verify replaced, kept here as the
// oracle: re-run the whole front-end on private clones of both retained
// clouds, align the results at the full ICP budget and, without feature
// consensus, align them again at the loose-fit budget, then apply the
// gates. A front-end is a deterministic function of the points and the
// config, so aligning the front-ends the caller already computed, and
// choosing the budget between the two phases, must give the same closure,
// bit for bit.
func referenceVerify(cand Candidate, from, to *cloud.Slab, cfg registration.PipelineConfig) (Closure, bool) {
	pf := registration.PrepareFrameSlab(from.Clone(), cfg)
	pt := registration.PrepareFrameSlab(to.Clone(), cfg)
	res := registration.Align(pf, pt, cfg)
	featureOK := featureConsensus(res.Inliers, res.Correspondences)
	if !featureOK {
		res = registration.Align(pf, pt, looseFit(cfg))
	}
	pf.Release()
	pt.Release()
	ok := res.ICP.Converged && res.ICP.FinalRMSE <= maxRMSE &&
		res.Transform.TranslationNorm() <= maxDeltaTranslation &&
		(featureOK || res.ICP.FinalRMSE <= tightRMSE)
	return closureOf(cand, res), ok
}

// closureOf is the closure Verify reports for cand aligned as res.
func closureOf(cand Candidate, res registration.Result) Closure {
	return Closure{
		From: cand.From, To: cand.To, Delta: res.Transform,
		Inliers: res.Inliers, Correspondences: res.Correspondences,
		RMSE: res.ICP.FinalRMSE, SigDist: cand.SigDist,
	}
}

// observeCircuit prepares every frame of a short circuit under cfg and
// observes it, without verifying in between (so no cooldown thins the
// proposals). It returns the detector, every candidate proposed, and a
// clone of each frame's raw slab taken when the engine used to take it:
// after the front-end, before the frame is anyone's target.
func observeCircuit(t *testing.T, cfg registration.PipelineConfig) (*Detector, []Candidate, []*cloud.Slab) {
	t.Helper()
	const perLap, frames = 8, 11
	seq := circuitSequence(t, frames, perLap)
	det, err := NewDetector(Config{MinSeparation: perLap - 2, MaxCandidates: 2, Cooldown: 1})
	if err != nil {
		t.Fatal(err)
	}
	var cands []Candidate
	clouds := make([]*cloud.Slab, frames)
	for i, f := range seq.Frames {
		pf := registration.PrepareFrame(f, cfg)
		clouds[i] = pf.Raw.Clone()
		cands = append(cands, det.Observe(i, pf)...)
		pf.Release()
	}
	if len(cands) == 0 {
		t.Fatal("the circuit proposed no candidate")
	}
	return det, cands, clouds
}

// verifyConfigs are the shapes a retained frame takes: downsampled
// front-end with normals on demand (the design points), front-end on the
// raw cloud whose own normals ICP must read (VoxelLeaf 0, FrontEndOnRaw),
// no normals at all (point-to-point), and raw-cloud normals that a
// re-estimate would NOT reproduce (shell-injected NE) — the case a
// shortcut that estimates a detached target's normals afresh gets wrong.
func verifyConfigs() map[string]registration.PipelineConfig {
	dp7, dp4 := dse.DP7().Config, dse.DP4().Config
	noVoxel := dp4
	noVoxel.VoxelLeaf = 0
	onRaw := dp4
	onRaw.FrontEndOnRaw = true
	p2p := dp7
	p2p.ICP.Metric = registration.PointToPoint
	shell := onRaw
	shell.Inject.NEShell = &[2]float64{0.15, 0.45}
	return map[string]registration.PipelineConfig{
		"DP7": dp7, "DP4": dp4, "VoxelLeaf0": noVoxel, "FrontEndOnRaw": onRaw,
		"PointToPoint": p2p, "NEShellOnRaw": shell,
	}
}

func sameClosure(a, b Closure) bool {
	return a.From == b.From && a.To == b.To && a.Delta == b.Delta &&
		a.Inliers == b.Inliers && a.Correspondences == b.Correspondences &&
		math.Float64bits(a.RMSE) == math.Float64bits(b.RMSE) &&
		math.Float64bits(a.SigDist) == math.Float64bits(b.SigDist)
}

// TestVerifyMatchesReprepareReference: for every candidate a short
// circuit proposes, aligning the retained front-ends gives the closure
// and the verdict that re-preparing both frames gave.
func TestVerifyMatchesReprepareReference(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full pipeline verification")
	}
	for name, cfg := range verifyConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Searcher.Parallelism = 1
			det, cands, clouds := observeCircuit(t, cfg)
			accepted := 0
			for _, p := range []int{1, 2} {
				cfg.Searcher.Parallelism = p
				for _, cand := range cands {
					want, wantOK := referenceVerify(cand, clouds[cand.From], clouds[cand.To], cfg)
					got, gotOK := det.Verify(cand, cfg)
					if gotOK != wantOK || !sameClosure(got, want) {
						t.Fatalf("P=%d %d->%d: Verify = %+v (%v), re-preparing gave %+v (%v)",
							p, cand.From, cand.To, got, gotOK, want, wantOK)
					}
					if gotOK {
						accepted++
					}
				}
			}
			if st := det.Stats(); st.Verified != int64(2*len(cands)) || st.Accepted != int64(accepted) {
				t.Fatalf("stats %+v after %d verifications, %d accepted", st, 2*len(cands), accepted)
			}
			t.Logf("%d candidates, %d of %d verifications accepted", len(cands), accepted, 2*len(cands))
		})
	}
}

// TestFeatureConsensusBoundary pins the predicate's three edges.
func TestFeatureConsensusBoundary(t *testing.T) {
	for _, c := range []struct {
		inliers, correspondences int
		want                     bool
	}{
		{12, 24, true},  // both floors met exactly
		{11, 22, false}, // half, one inlier short
		{12, 25, false}, // enough inliers, under half
		{12, 0, false},  // no correspondences
	} {
		if got := featureConsensus(c.inliers, c.correspondences); got != c.want {
			t.Errorf("featureConsensus(%d, %d) = %v, want %v", c.inliers, c.correspondences, got, c.want)
		}
	}
}

// TestLooseFitCapsICP: the loose-fit budget caps ICP at
// looseFitIterations, the default of 30 included, and never raises it.
func TestLooseFitCapsICP(t *testing.T) {
	for in, want := range map[int]int{
		0:                      looseFitIterations,
		30:                     looseFitIterations,
		looseFitIterations + 1: looseFitIterations,
		looseFitIterations:     looseFitIterations,
		looseFitIterations - 1: looseFitIterations - 1,
	} {
		var cfg registration.PipelineConfig
		cfg.ICP.MaxIterations = in
		if got := looseFit(cfg).ICP.MaxIterations; got != want {
			t.Errorf("looseFit(MaxIterations %d) = %d, want %d", in, got, want)
		}
	}
}

// TestVerifyBudgetRule holds Verify to a full-budget Align of the same
// retained front-ends, candidate by candidate: with feature consensus, and
// without it when ICP stopped within looseFitIterations, the closure, the
// verdict and the ICP iterations counted are the full-budget ones; without
// consensus and still moving at the budget, the candidate is declined
// after looseFitIterations, with a loose-fit Align's closure. Every
// candidate without consensus that the full budget accepts must have
// converged at least two iterations inside looseFitIterations: the margin
// the budget was sized with.
func TestVerifyBudgetRule(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full pipeline verification")
	}
	cfg := dse.DP7().Config
	cfg.Searcher.Parallelism = 1
	det, cands, _ := observeCircuit(t, cfg)
	align := func(cand Candidate, cfg registration.PipelineConfig) registration.Result {
		target := det.frames[cand.To].Detach()
		defer target.Release()
		return registration.Align(det.frames[cand.From], target, cfg)
	}
	var consensus, within, cut, looseAccepted int
	for _, cand := range cands {
		full := align(cand, cfg)
		featureOK := featureConsensus(full.Inliers, full.Correspondences)
		want, wantOK, wantIters := closureOf(cand, full), accepts(full, featureOK), full.ICP.Iterations
		if wantOK && !featureOK {
			looseAccepted++
			if full.ICP.Iterations+2 > looseFitIterations {
				t.Errorf("%d->%d: accepted without consensus after %d iterations, within two of the budget of %d",
					cand.From, cand.To, full.ICP.Iterations, looseFitIterations)
			}
		}
		switch {
		case featureOK:
			consensus++
		case full.ICP.Iterations <= looseFitIterations:
			within++
		default:
			cut++
			loose := align(cand, looseFit(cfg))
			want, wantOK, wantIters = closureOf(cand, loose), false, looseFitIterations
		}
		before := det.Stats().ICPIterations
		got, gotOK := det.Verify(cand, cfg)
		iters := int(det.Stats().ICPIterations - before)
		if gotOK != wantOK || !sameClosure(got, want) || iters != wantIters {
			t.Fatalf("%d->%d (full budget: %d iterations, %d of %d inliers): Verify = %+v (%v, %d iterations), want %+v (%v, %d)",
				cand.From, cand.To, full.ICP.Iterations, full.Inliers, full.Correspondences, got, gotOK, iters, want, wantOK, wantIters)
		}
	}
	t.Logf("%d candidates: %d with consensus, %d without that stop within the budget (%d accepted), %d cut",
		len(cands), consensus, within, looseAccepted, cut)
	if consensus == 0 || within == 0 || looseAccepted == 0 || cut == 0 {
		t.Fatalf("the circuit does not exercise every case: %d with consensus, %d within the budget (%d accepted), %d cut",
			consensus, within, looseAccepted, cut)
	}
}

// retainedHash fingerprints every array the detector retains: positions,
// normals where a frame has them, descriptors, key-point positions.
func retainedHash(t *testing.T, d *Detector) uint64 {
	t.Helper()
	h := fnv.New64a()
	for i := 0; i < len(d.sigs); i++ {
		f := d.frames[i]
		for _, arr := range []any{f.Raw.Xs, f.Raw.Ys, f.Raw.Zs, f.Raw.NXs, f.Raw.NYs, f.Raw.NZs, f.Desc.Data, f.KeypointPts} {
			if err := binary.Write(h, binary.LittleEndian, arr); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h.Sum64()
}

// TestConcurrentVerifyLeavesRetainedStateUntouched holds Detector's
// "safe for concurrent use" to what verification now shares: two
// verifications with the same target frame and a third whose source is
// that target run at once (under -race in CI), each must return what it
// returns alone, and nothing the detector retains may change — with
// normals on demand, where each verification writes normals and an index
// of its own, and with a front-end on the raw cloud, where all three read
// the same retained normals.
func TestConcurrentVerifyLeavesRetainedStateUntouched(t *testing.T) {
	onRaw := dse.DP4().Config
	onRaw.FrontEndOnRaw = true
	for name, cfg := range map[string]registration.PipelineConfig{"DP4": dse.DP4().Config, "FrontEndOnRaw": onRaw} {
		t.Run(name, func(t *testing.T) {
			cfg.Searcher.Parallelism = 2
			det, _, _ := observeCircuit(t, cfg)
			cands := []Candidate{{From: 9, To: 1}, {From: 10, To: 1}, {From: 1, To: 0}}
			before := retainedHash(t, det)
			want := make([]Closure, len(cands))
			for i, cand := range cands {
				want[i], _ = det.Verify(cand, cfg)
			}
			if before != retainedHash(t, det) {
				t.Fatal("a verification wrote to what the detector retains")
			}
			got := make([]Closure, len(cands))
			var wg sync.WaitGroup
			for i, cand := range cands {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], _ = det.Verify(cand, cfg)
				}()
			}
			wg.Wait()
			for i := range cands {
				if !sameClosure(got[i], want[i]) {
					t.Errorf("%d->%d: concurrent %+v, alone %+v", cands[i].From, cands[i].To, got[i], want[i])
				}
			}
			if before != retainedHash(t, det) {
				t.Fatal("concurrent verifications wrote to what the detector retains")
			}
			for i, f := range det.frames {
				if f.FineNormals() != 0 || f.Builds != 0 {
					t.Fatalf("retained frame %d kept a verification's normals or index", i)
				}
			}
		})
	}
}
