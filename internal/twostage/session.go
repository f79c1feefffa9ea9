package twostage

import (
	"math"

	"tigris/internal/geom"
	"tigris/internal/kdtree"
)

// ApproxSession runs approximate searches with leader state that persists
// across calls, the way the accelerator's per-leaf Leader Buffers persist
// across the queries of one pipeline stage (§5.3). Create one session per
// stage invocation; the batch helpers in this package are one-shot
// sessions.
//
// A session is not safe for concurrent use — its leader buffers mutate on
// every query. The batched search layer (internal/search) therefore gives
// each worker its own session over a fixed-size chunk of the batch, so
// leader state never crosses goroutines and batch results are a
// deterministic function of the query batch alone.
//
// Radius leaders are only meaningful for a fixed radius; if the radius
// changes between calls the radius leader state is reset.
type ApproxSession struct {
	tree *Tree
	opts ApproxOptions
	nn   [][]nnLeader
	rad  [][]radLeader
	radR float64
}

// NewApproxSession creates a session over t.
func (t *Tree) NewApproxSession(opts ApproxOptions) *ApproxSession {
	opts.defaults()
	return &ApproxSession{
		tree: t,
		opts: opts,
		nn:   make([][]nnLeader, len(t.leaves)),
		rad:  make([][]radLeader, len(t.leaves)),
		radR: -1,
	}
}

// Reset clears all leader state in place, retaining the allocated
// per-leaf buffers, so one session can serve successive batch chunks
// without reallocating O(leaves) storage per chunk. A reset session
// behaves exactly like a freshly created one.
func (s *ApproxSession) Reset() {
	for i := range s.nn {
		s.nn[i] = s.nn[i][:0]
	}
	for i := range s.rad {
		s.rad[i] = s.rad[i][:0]
	}
	s.radR = -1
}

// Nearest performs one approximate NN query, updating leader state.
func (s *ApproxSession) Nearest(q geom.Vec3, stats *Stats) (kdtree.Neighbor, bool) {
	if stats != nil {
		stats.Queries++
	}
	best := kdtree.Neighbor{Index: -1, Dist2: math.MaxFloat64}
	s.tree.nearestApprox(s.tree.root, q, &best, s.nn, s.opts, stats)
	return best, best.Index >= 0
}

// Radius performs one approximate radius query, updating leader state.
func (s *ApproxSession) Radius(q geom.Vec3, r float64, stats *Stats) []kdtree.Neighbor {
	return s.RadiusInto(q, r, nil, stats)
}

// RadiusInto is Radius appending into buf (reset to length 0); see
// Tree.RadiusInto for the slab-recycling contract. Leader result sets
// are the session's own copies, so the returned slice aliases nothing
// the session keeps.
func (s *ApproxSession) RadiusInto(q geom.Vec3, r float64, buf []kdtree.Neighbor, stats *Stats) []kdtree.Neighbor {
	if stats != nil {
		stats.Queries++
	}
	if r != s.radR {
		// Truncate in place rather than reallocate: leader capacity is
		// reused across radius changes and session resets.
		for i := range s.rad {
			s.rad[i] = s.rad[i][:0]
		}
		s.radR = r
	}
	opts := s.opts
	if opts.RadiusThresholdFrac > 0 {
		opts.Threshold = opts.RadiusThresholdFrac * r
	}
	res := buf[:0]
	s.tree.radiusApprox(s.tree.root, q, r*r, &res, s.rad, opts, stats)
	sortNeighbors(res)
	return res
}
