package sim

import "tigris/internal/search"

// WorkloadsFromTrace converts a trace-backend capture (the "trace"
// search backend recording a real pipeline run) into accelerator
// workloads, one Workload per recorded stage batch — the unit the
// accelerator is invoked on. NN batches map to NNSearch and radius
// batches to RadiusSearch; exact k-NN batches have no datapath
// counterpart (the modeled accelerator serves NN and radius search, §5)
// and are skipped. The query slices are shared with the trace, not
// copied.
//
// This is the ROADMAP's "feed sim.Workload batches straight from the
// stage query logs": capture once with the trace backend, then replay the
// exact query stream through Run/Prepare/Simulate or the baseline
// Profile* models instead of re-walking the pipeline.
func WorkloadsFromTrace(batches []search.TraceBatch) []Workload {
	out := make([]Workload, 0, len(batches))
	for _, b := range batches {
		switch b.Kind {
		case search.TraceNearest:
			out = append(out, Workload{Kind: NNSearch, Queries: b.Queries, Stage: b.Stage})
		case search.TraceRadius:
			out = append(out, Workload{Kind: RadiusSearch, Queries: b.Queries, Radius: b.Radius, Stage: b.Stage})
		}
	}
	return out
}
