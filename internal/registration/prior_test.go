package registration_test

import (
	"testing"

	"tigris/internal/dse"
	"tigris/internal/geom"
	"tigris/internal/registration"
	"tigris/internal/synth"
)

// TestAlignFromPrior: AlignFrom with the identity is Align bit for bit;
// when the guards reject the front-end's estimate, ICP starts from a prior
// within the motion bounds and reports it, and a prior outside them is
// ignored, bit for bit again.
func TestAlignFromPrior(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 12))
	cfg := dse.NamedDesignPoints()[4].Config // DP5
	align := func(prior *geom.Transform) registration.Result {
		src, dst := registration.PrepareFrame(seq.Frames[1], cfg), registration.PrepareFrame(seq.Frames[0], cfg)
		defer src.Release()
		defer dst.Release()
		if prior == nil {
			return registration.Align(src, dst, cfg)
		}
		return registration.AlignFrom(src, dst, cfg, *prior)
	}
	same := func(a, b registration.Result) bool {
		return a.Transform == b.Transform && a.Initial == b.Initial && a.InitialSource == b.InitialSource &&
			a.ICP.Iterations == b.ICP.Iterations && a.ICP.FinalRMSE == b.ICP.FinalRMSE && a.FineNormals == b.FineNormals
	}

	want := align(nil)
	if want.InitialSource != registration.FromIdentity || want.Initial != geom.IdentityTransform() {
		t.Fatalf("Align started from %s: the pair no longer exercises the fallback", want.InitialSource)
	}
	identity := geom.IdentityTransform()
	if got := align(&identity); !same(got, want) {
		t.Fatalf("AlignFrom(identity) differs from Align:\n%+v\nvs\n%+v", got, want)
	}

	truth := seq.GroundTruthDelta(0)
	got := align(&truth)
	if got.InitialSource != registration.FromMotionPrior || got.Initial != truth {
		t.Fatalf("a prior within the bounds: started from %s at %v, want the prior", got.InitialSource, got.Initial)
	}
	if e, e0 := registration.EvaluatePair(got.Transform, truth), registration.EvaluatePair(want.Transform, truth); e.TranslationalPct > e0.TranslationalPct+1 {
		t.Errorf("ICP from the true motion ends %.2f %% off, from the identity %.2f %%", e.TranslationalPct, e0.TranslationalPct)
	}

	far := truth
	far.T.X += 6 // past MaxInitialTranslation's 5 m
	if got := align(&far); !same(got, want) {
		t.Fatalf("a prior outside the bounds was not ignored: started from %s", got.InitialSource)
	}
}
