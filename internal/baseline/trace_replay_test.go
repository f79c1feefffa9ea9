package baseline

import (
	"testing"

	"tigris/internal/registration"
	"tigris/internal/search"
	"tigris/internal/sim"
	"tigris/internal/synth"
	"tigris/internal/twostage"
)

// TestTraceReplayMatchesPipelineQueries is the co-simulation acceptance
// test: an end-to-end registration runs with the trace backend, the
// captured batches convert to sim.Workloads, and replaying them through
// the two-stage baseline profiler accounts for exactly the query stream
// the pipeline issued (Result.SearchQueries counts the same 3D searches
// the trace decorator saw).
func TestTraceReplayMatchesPipelineQueries(t *testing.T) {
	seq := synth.GenerateSequence(synth.QuickSequenceConfig(2, 2019))

	sink := &search.TraceLog{}
	var cfg registration.PipelineConfig
	cfg.Searcher = registration.SearcherConfig{
		Backend: search.BackendTrace,
		Options: search.Options{
			search.OptTraceInner: search.BackendTwoStage,
			search.OptTraceSink:  sink,
		},
	}
	cfg.Rejection.Method = registration.RejectRANSAC
	cfg.Rejection.Seed = 7
	cfg.ICP.MaxIterations = 10
	res := registration.Register(seq.Frames[1].Clone(), seq.Frames[0].Clone(), cfg)
	if res.SearchQueries == 0 {
		t.Fatal("pipeline issued no searches")
	}
	if got := sink.QueryCount(); got != res.SearchQueries {
		t.Fatalf("trace captured %d queries, pipeline metrics counted %d", got, res.SearchQueries)
	}

	workloads := sim.WorkloadsFromTrace(sink.Batches())
	if len(workloads) == 0 {
		t.Fatal("no workloads converted from the trace")
	}
	tree := twostage.BuildWithLeafSize(seq.Frames[0].Points, 128)
	var replayed int64
	for _, w := range workloads {
		p := ProfileTwoStage(tree, w)
		if p.Queries != int64(len(w.Queries)) {
			t.Fatalf("replay answered %d of %d queries", p.Queries, len(w.Queries))
		}
		replayed += p.Queries
	}
	if replayed != res.SearchQueries {
		t.Fatalf("replayed %d queries through ProfileTwoStage, pipeline issued %d", replayed, res.SearchQueries)
	}

	// The same workloads drive the cycle-level simulator (the ROADMAP's
	// batch API for the co-simulation path): smoke one NN batch through.
	for _, w := range workloads {
		if w.Kind != sim.NNSearch {
			continue
		}
		rep, err := sim.Run(tree, w, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Queries != len(w.Queries) || rep.Cycles == 0 {
			t.Fatalf("simulated %d queries in %d cycles", rep.Queries, rep.Cycles)
		}
		break
	}
}
