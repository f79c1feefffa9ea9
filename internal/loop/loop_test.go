package loop

import (
	"reflect"
	"testing"

	"tigris/internal/dse"
	"tigris/internal/registration"
	"tigris/internal/synth"
)

// circuitSequence renders a closed circuit plus a few revisit frames:
// frame perLap+k re-observes frame k's pose exactly.
func circuitSequence(t *testing.T, frames, perLap int) *synth.Sequence {
	t.Helper()
	cfg := synth.QuickSequenceConfig(frames, 77)
	cfg.Trajectory = synth.CircuitTrajectory{Radius: 3, FramesPerLap: perLap}
	return synth.GenerateSequence(cfg)
}

// slamPipeline is the accuracy-oriented design point the SLAM layer
// verifies loops with: the quick synthetic frames are too sparse for the
// performance-oriented points to register a turning trajectory.
func slamPipeline(t testing.TB) registration.PipelineConfig {
	t.Helper()
	for _, dp := range dse.NamedDesignPoints() {
		if dp.Name == "DP7" {
			cfg := dp.Config
			cfg.Searcher.Parallelism = 1
			return cfg
		}
	}
	t.Fatal("DP7 missing")
	return registration.PipelineConfig{}
}

func TestSignatureDeterministicAndDiscriminative(t *testing.T) {
	seq := circuitSequence(t, 3, 40)
	cfg := slamPipeline(t)

	pf0 := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
	pf0b := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
	pf1 := registration.PrepareFrame(seq.Frames[1].Clone(), cfg)
	defer pf0.Release()
	defer pf0b.Release()
	defer pf1.Release()

	m0, k0 := frameSignature(pf0.Desc)
	m0b, k0b := frameSignature(pf0b.Desc)
	if k0 != k0b {
		t.Fatalf("signature key not deterministic: %v vs %v", k0, k0b)
	}
	for j := range m0 {
		if m0[j] != m0b[j] {
			t.Fatalf("signature mean not deterministic at %d", j)
		}
	}
	m1, _ := frameSignature(pf1.Desc)
	if reflect.DeepEqual(m0, m1) {
		t.Fatal("distinct frames produced identical signatures")
	}

	// Empty descriptors degrade gracefully.
	if m, _ := frameSignature(nil); m != nil {
		t.Fatal("nil descriptors should give an empty signature")
	}
}

func TestDetectorProposesAndVerifiesRevisit(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline verification")
	}
	perLap := 40
	frames := perLap + 6 // one lap plus revisit frames
	seq := circuitSequence(t, frames, perLap)
	cfg := slamPipeline(t)

	det, err := NewDetector(Config{
		Backend:       "twostage",
		MinSeparation: perLap - 2,
		MaxCandidates: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	var accepted []Closure
	for i, f := range seq.Frames {
		pf := registration.PrepareFrame(f, cfg)
		cands := det.Observe(i, pf)
		pf.Release()
		for _, cand := range cands {
			if cand.From-cand.To < perLap-2 {
				t.Fatalf("temporal gate violated: %d vs %d", cand.From, cand.To)
			}
			if cl, ok := det.Verify(cand, cfg); ok {
				accepted = append(accepted, cl)
				break
			}
		}
	}
	if len(accepted) == 0 {
		t.Fatal("no loop closure accepted on a closed circuit")
	}
	st := det.Stats()
	if st.Observed != int64(frames) || st.Accepted != int64(len(accepted)) {
		t.Fatalf("stats inconsistent: %+v with %d accepted", st, len(accepted))
	}
	if st.Proposed < st.Accepted || st.Verified < st.Accepted {
		t.Fatalf("counter ordering broken: %+v", st)
	}
	// Every accepted closure must carry a relative transform close to the
	// ground-truth relative pose of its frames — that is the evidence the
	// pose graph consumes.
	for _, cl := range accepted {
		truth := seq.Poses[cl.To].Inverse().Compose(seq.Poses[cl.From])
		errT := cl.Delta.Inverse().Compose(truth)
		if errT.TranslationNorm() > 0.1 {
			t.Errorf("closure %d->%d delta is %.3f m from truth", cl.From, cl.To, errT.TranslationNorm())
		}
	}
}

func TestDetectorCooldownAndGate(t *testing.T) {
	det, err := NewDetector(Config{MinSeparation: 5, Cooldown: 3})
	if err != nil {
		t.Fatal(err)
	}
	// One prepared frame observed under six indices: proposals depend on
	// the signatures alone.
	seq := circuitSequence(t, 2, 40)
	cfg := slamPipeline(t)
	pf := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
	defer pf.Release()
	for i := 0; i < 5; i++ {
		if cands := det.Observe(i, pf); len(cands) != 0 {
			t.Fatalf("frame %d proposed %v inside the temporal gate", i, cands)
		}
	}
	// Frame 5 may match frame 0 (identical signature — same descriptors).
	cands := det.Observe(5, pf)
	if len(cands) == 0 || cands[0].To != 0 || cands[0].SigDist != 0 {
		t.Fatalf("frame 5 should match frame 0 exactly, got %v", cands)
	}
	// A candidate naming a frame the detector does not hold must be
	// declined gracefully, whichever side it is.
	for _, cand := range []Candidate{{From: 5, To: 99}, {From: 99, To: 0}} {
		if _, ok := det.Verify(cand, cfg); ok {
			t.Fatalf("verification of %+v succeeded without a retained frame", cand)
		}
	}
	if st := det.Stats(); st.Verified != 0 {
		t.Fatalf("declined candidates counted as %d verifications", st.Verified)
	}
}

func TestDetectorRejectsUnknownBackend(t *testing.T) {
	if _, err := NewDetector(Config{Backend: "no-such-backend"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
