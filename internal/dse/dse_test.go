package dse

import (
	"reflect"
	"testing"
	"time"

	"tigris/internal/kdtree"
	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/synth"
)

func TestNamedDesignPointsAnchors(t *testing.T) {
	dps := NamedDesignPoints()
	if len(dps) != 8 {
		t.Fatalf("expected 8 design points, got %d", len(dps))
	}
	names := map[string]bool{}
	for _, dp := range dps {
		if names[dp.Name] {
			t.Errorf("duplicate design point name %s", dp.Name)
		}
		names[dp.Name] = true
	}
	// §6.3 anchors.
	if r := DP4().Config.Normal.SearchRadius; r != 0.30 {
		t.Errorf("DP4 NE radius = %v, paper uses 0.30", r)
	}
	if r := DP7().Config.Normal.SearchRadius; r != 0.75 {
		t.Errorf("DP7 NE radius = %v, paper uses 0.75", r)
	}
}

func TestGridCoversKnobs(t *testing.T) {
	grid := Grid()
	if len(grid) != 48 {
		t.Fatalf("grid size = %d, want 48", len(grid))
	}
	radii := map[float64]bool{}
	metrics := map[registration.ErrorMetric]bool{}
	for _, dp := range grid {
		radii[dp.Config.Normal.SearchRadius] = true
		metrics[dp.Config.ICP.Metric] = true
	}
	if len(radii) != 3 || len(metrics) != 2 {
		t.Errorf("grid does not cover knobs: %d radii, %d metrics", len(radii), len(metrics))
	}
	seen := map[string]bool{}
	for _, dp := range grid {
		if seen[dp.Name] {
			t.Fatalf("duplicate grid name %s", dp.Name)
		}
		seen[dp.Name] = true
	}
}

func TestParetoFront(t *testing.T) {
	mk := func(name string, err float64, ms int) Evaluated {
		return Evaluated{
			Point:    DesignPoint{Name: name},
			Error:    registration.SequenceError{MeanTranslationalPct: err},
			MeanTime: time.Duration(ms) * time.Millisecond,
		}
	}
	evals := []Evaluated{
		mk("fast-bad", 10, 10),
		mk("slow-good", 1, 100),
		mk("dominated", 11, 50), // worse than fast-bad in both
		mk("mid", 5, 40),        // on the frontier
		mk("dominated2", 6, 41), // mid beats it in both
	}
	front := ParetoFront(evals, TranslationalError)
	got := map[string]bool{}
	for _, e := range front {
		got[e.Point.Name] = true
	}
	for _, want := range []string{"fast-bad", "slow-good", "mid"} {
		if !got[want] {
			t.Errorf("%s missing from Pareto front", want)
		}
	}
	if got["dominated"] || got["dominated2"] {
		t.Error("dominated points on the front")
	}
	if len(front) != 3 {
		t.Errorf("front size = %d", len(front))
	}
}

func TestEvaluateProducesBreakdown(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 31))
	dp := DP4()
	ev := Evaluate(seq, dp)
	if ev.MeanTime <= 0 {
		t.Fatal("no time recorded")
	}
	if ev.KDSearch <= 0 {
		t.Error("no KD search time recorded")
	}
	if ev.Stage.Total() <= 0 {
		t.Error("no stage breakdown recorded")
	}
	if ev.Error.Frames != 1 {
		t.Errorf("frames = %d", ev.Error.Frames)
	}
	if ev.KDBuild <= 0 || ev.Other <= 0 {
		t.Errorf("KD build %v, other %v: Fig. 4b components missing", ev.KDBuild, ev.Other)
	}
}

func TestEvaluateEmptySequence(t *testing.T) {
	seq := &synth.Sequence{}
	ev := Evaluate(seq, DP4())
	if ev.MeanTime != 0 {
		t.Error("empty sequence should produce zero evaluation")
	}
}

// TestCaptureKeepsBatchesWithTheirSlabs: the stream holds both frames'
// front-ends and fine-tuning, every batch beside the point set that
// answered it, and does not depend on the worker count.
func TestCaptureKeepsBatchesWithTheirSlabs(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 32))
	cfg := DP7().Config // downsampled front-end: fine-tuning has its own slab
	cfg.Searcher.Parallelism = 1
	st := Capture(seq, cfg)
	if len(st.Slabs) != 3 || st.Slabs[2].Len() != seq.Frames[0].Len() {
		t.Fatalf("want target FE, source FE and the target's raw cloud; got %d slabs", len(st.Slabs))
	}
	trees := make([]*kdtree.Tree, len(st.Slabs))
	for i, s := range st.Slabs {
		trees[i] = kdtree.BuildSlab(s)
	}
	perSlab := make([]int, len(st.Slabs))
	for i, b := range st.Batches {
		perSlab[b.Slab]++
		// RPCE searches the raw target only, key-points and descriptors
		// the front-end clouds only; normals are estimated on both (the
		// raw target's on demand, for the points ICP matched).
		if fine := b.Slab == 2; b.Stage != search.StageNormals && fine != (b.Stage == search.StageRPCE) {
			t.Fatalf("batch %d: stage %q over slab %d", i, b.Stage, b.Slab)
		}
		// Every stage but RPCE queries around points of the cloud it
		// indexes, so over the right slab the nearest point is the query.
		if b.Stage == search.StageRPCE {
			continue
		}
		for _, q := range b.Queries {
			if nb, _ := trees[b.Slab].Nearest(q, nil); nb.Dist2 != 0 {
				t.Fatalf("batch %d (%s): query %v is not a point of slab %d", i, b.Stage, q, b.Slab)
			}
		}
	}
	for i, n := range perSlab {
		if n == 0 {
			t.Errorf("no batch over slab %d", i)
		}
	}
	cfg.Searcher.Parallelism = 2
	if st2 := Capture(seq, cfg); !reflect.DeepEqual(st.Batches, st2.Batches) {
		t.Error("capture differs between Parallelism 1 and 2")
	}
}

func TestKDTreeSearchDominates(t *testing.T) {
	// The paper's central §3.2 claim: KD-tree search is 50-85% of
	// registration time across design points. Check the accuracy-oriented
	// anchor on a real frame pair.
	seq := synth.GenerateSequence(synth.EvalSequenceConfig(2, 33))
	ev := Evaluate(seq, DP7())
	if f := float64(ev.KDSearch) / float64(ev.KDSearch+ev.KDBuild+ev.Other); f < 0.35 {
		t.Errorf("KD search fraction %.2f; paper reports 0.50-0.85", f)
	}
}
