package registration

import (
	"testing"

	"tigris/internal/search"
	"tigris/internal/synth"
)

// parallelEquivCases enumerates the exact backends whose end-to-end
// pipeline output must be bit-identical between the sequential path
// (Parallelism 1) and the worker-pool path.
var parallelEquivCases = []struct {
	name    string
	backend string
}{
	{"canonical", search.BackendCanonical},
	{"twostage-exact", search.BackendTwoStage},
}

// TestRegisterParallelMatchesSequential: the full two-phase pipeline must
// produce the exact same transform (and population counts) whether the
// neighbor searches run sequentially or on a worker pool — the tentpole
// guarantee that batching changes wall time, never results.
func TestRegisterParallelMatchesSequential(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 77))
	for _, tc := range parallelEquivCases {
		base := pipelineTestConfig()
		base.Searcher.Backend = tc.backend

		serial := base
		serial.Searcher.Parallelism = 1
		parallel := base
		parallel.Searcher.Parallelism = 4

		resS := Register(seq.Frames[1], seq.Frames[0], serial)
		resP := Register(seq.Frames[1], seq.Frames[0], parallel)

		if resS.Transform != resP.Transform {
			t.Errorf("%s: parallel transform differs from sequential:\n%v\nvs\n%v",
				tc.name, resP.Transform, resS.Transform)
		}
		if resS.Initial != resP.Initial {
			t.Errorf("%s: initial estimates differ", tc.name)
		}
		if resS.SrcKeypoints != resP.SrcKeypoints || resS.DstKeypoints != resP.DstKeypoints {
			t.Errorf("%s: keypoint counts differ: %d/%d vs %d/%d", tc.name,
				resS.SrcKeypoints, resS.DstKeypoints, resP.SrcKeypoints, resP.DstKeypoints)
		}
		if resS.Correspondences != resP.Correspondences || resS.Inliers != resP.Inliers {
			t.Errorf("%s: correspondence counts differ", tc.name)
		}
		if resS.NodesVisited != resP.NodesVisited || resS.SearchQueries != resP.SearchQueries {
			t.Errorf("%s: merged search metrics differ: %d/%d vs %d/%d", tc.name,
				resS.NodesVisited, resS.SearchQueries, resP.NodesVisited, resP.SearchQueries)
		}
		if resS.ICP.Iterations != resP.ICP.Iterations || resS.ICP.FinalRMSE != resP.ICP.FinalRMSE {
			t.Errorf("%s: ICP outcomes differ", tc.name)
		}
	}
}

// TestRegisterParallelWithInjectionMatchesSequential: the error-injection
// wrappers must stay bit-identical under the worker pool too (the §4.2
// study must not depend on the execution schedule).
func TestRegisterParallelWithInjectionMatchesSequential(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 78))
	base := pipelineTestConfig()
	base.Inject.RPCEKthNN = 3
	shell := [2]float64{0.2, base.Normal.SearchRadius + 0.2}
	base.Inject.NEShell = &shell

	serial := base
	serial.Searcher.Parallelism = 1
	parallel := base
	parallel.Searcher.Parallelism = 4

	resS := Register(seq.Frames[1], seq.Frames[0], serial)
	resP := Register(seq.Frames[1], seq.Frames[0], parallel)
	if resS.Transform != resP.Transform {
		t.Errorf("injected pipeline: parallel transform differs from sequential")
	}
}

// TestRegisterApproxParallelismInvariant: the approximate backend is not
// bit-identical to the old shared-session sequential walk, but its batch
// chunking makes the whole pipeline a deterministic function of the
// input — the Parallelism knob must not change the result.
func TestRegisterApproxParallelismInvariant(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 79))
	base := pipelineTestConfig()
	base.Searcher.Backend = search.BackendTwoStageApprox

	var first Result
	for i, p := range []int{1, 2, 8} {
		cfg := base
		cfg.Searcher.Parallelism = p
		res := Register(seq.Frames[1], seq.Frames[0], cfg)
		if i == 0 {
			first = res
			continue
		}
		if res.Transform != first.Transform {
			t.Errorf("parallelism %d: approx transform differs from parallelism 1", p)
		}
		if res.NodesVisited != first.NodesVisited {
			t.Errorf("parallelism %d: approx visit counts differ (%d vs %d)",
				p, res.NodesVisited, first.NodesVisited)
		}
	}
}
