package registration_test

import (
	"math"
	"testing"

	"tigris/internal/dse"
	"tigris/internal/registration"
)

// allPoisoned reports whether every element of a column holds the NaN a
// pool writes over what it is handed in a test binary.
func allPoisoned(col []float32) bool {
	for _, v := range col {
		if !math.IsNaN(float64(v)) {
			return false
		}
	}
	return len(col) > 0
}

// TestReleaseReturnsWhatTheFrameOwns: Release hands back — and so, under
// test, poisons — every column the frame drew: raw and front-end points,
// the front-end's normals and the raw normals fine-tuning estimated; and
// none of what a detached frame shares with it, the raw points always and
// the normals when the front-end ran on the raw cloud. The detached frame
// then aligns bit for bit as it did before its owner was released, and
// releasing a detached target leaves the frame it came from intact.
func TestReleaseReturnsWhatTheFrameOwns(t *testing.T) {
	seq := fineSequence(93)
	for _, onRaw := range []bool{false, true} {
		cfg := dse.NamedDesignPoints()[4].Config
		cfg.FrontEndOnRaw = onRaw
		cfg.Searcher.Parallelism = 2

		// A frame that played both roles and was never detached.
		prev := registration.PrepareFrame(seq.Frames[0].Clone(), cfg)
		cur := registration.PrepareFrame(seq.Frames[1].Clone(), cfg)
		registration.Align(cur, prev, cfg)
		owned := [][]float32{prev.Raw.Xs, prev.Raw.Zs, prev.Raw.NXs, prev.Raw.NZs, prev.FE.Xs, prev.FE.NYs}
		prev.Release()
		for i, col := range owned {
			if !allPoisoned(col) {
				t.Errorf("onRaw=%v: column %d of a released frame was not handed back", onRaw, i)
			}
		}

		// A frame the loop detector keeps a Detach of.
		src := registration.PrepareFrame(seq.Frames[2].Clone(), cfg)
		want := registration.Align(src, cur.Detach(), cfg)
		kept := cur.Detach()
		xs := append([]float32(nil), kept.Raw.Xs...)
		var nxs []float32
		if onRaw {
			nxs = append([]float32(nil), kept.Raw.NXs...)
		}
		fe := cur.FE.Xs
		cur.Release()
		if !onRaw && !allPoisoned(fe) {
			t.Errorf("onRaw=%v: the front-end slab of a detached frame's owner was not handed back", onRaw)
		}
		target := kept.Detach()
		got := registration.Align(src, target, cfg)
		target.Release()
		if got.Transform != want.Transform || got.ICP.Iterations != want.ICP.Iterations || got.Inliers != want.Inliers {
			t.Errorf("onRaw=%v: the detached frame aligns differently once its owner is released", onRaw)
		}
		for i, x := range xs {
			if math.Float32bits(kept.Raw.Xs[i]) != math.Float32bits(x) {
				t.Fatalf("onRaw=%v: shared raw point %d changed to %v", onRaw, i, kept.Raw.Xs[i])
			}
		}
		for i, n := range nxs {
			if math.Float32bits(kept.Raw.NXs[i]) != math.Float32bits(n) {
				t.Fatalf("onRaw=%v: shared normal %d changed to %v", onRaw, i, kept.Raw.NXs[i])
			}
		}
		src.Release()
	}
}
