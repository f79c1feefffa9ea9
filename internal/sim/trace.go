package sim

import "tigris/internal/geom"

// SearchKind is the workload's search type (paper §4.1: point cloud
// registration issues radius searches and NN searches).
type SearchKind int

const (
	// NNSearch finds the nearest neighbor of each query.
	NNSearch SearchKind = iota
	// RadiusSearch finds all points within Radius of each query.
	RadiusSearch
)

// String implements fmt.Stringer.
func (k SearchKind) String() string {
	if k == RadiusSearch {
		return "Radius"
	}
	return "NN"
}

// Workload is a batch of same-kind queries, the unit the accelerator is
// invoked on (one pipeline stage issues one batch).
type Workload struct {
	Kind    SearchKind
	Queries []geom.Vec3
	Radius  float64 // used by RadiusSearch
	// Stage labels the pipeline stage that issued the batch when the
	// workload came from a trace capture (one of the search.Stage*
	// labels; empty for synthesized workloads). It lets co-sim runs
	// weight per-stage contributions the way Fig. 6 does.
	Stage string
}
