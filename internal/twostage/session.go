package twostage

import (
	"tigris/internal/geom"
	"tigris/internal/kdtree"
)

// ApproxSession runs searches with leader state that persists across
// calls, the way the accelerator's per-leaf Leader Buffers persist across
// the queries of one pipeline stage (§5.3). Create one session per stage
// invocation. With a threshold of zero or below a session is exact search:
// the answers and Stats of Tree.Nearest and Tree.Radius.
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
	tree   *Tree
	opts   ApproxOptions
	nn     [][]leader[kdtree.Neighbor]
	rad    [][]leader[[]kdtree.Neighbor]
	radR   float64
	radThd float64 // the radius-search discriminator at radius radR

	open Visit     // the visit the query being answered is in
	log  *VisitLog // where closed visits go; nil when nobody asked
}

// NewApproxSession creates a session over t.
func (t *Tree) NewApproxSession(opts ApproxOptions) *ApproxSession {
	opts.defaults()
	return &ApproxSession{
		tree: t,
		opts: opts,
		nn:   make([][]leader[kdtree.Neighbor], len(t.leaves)),
		rad:  make([][]leader[[]kdtree.Neighbor], len(t.leaves)),
		radR: -1,
		open: Visit{Leaf: -1},
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
	s.resetRadius(-1)
}

// resetRadius truncates the radius leaders in place — their capacity is
// reused across radius changes and session resets — and fixes the
// discriminator for searches at radius r.
func (s *ApproxSession) resetRadius(r float64) {
	for i := range s.rad {
		s.rad[i] = s.rad[i][:0]
	}
	s.radR = r
	s.radThd = s.opts.Threshold
	if s.opts.RadiusThresholdFrac > 0 {
		s.radThd = s.opts.RadiusThresholdFrac * r
	}
}

// Nearest performs one NN query, updating leader state.
func (s *ApproxSession) Nearest(q geom.Vec3, stats *Stats) (kdtree.Neighbor, bool) {
	if stats != nil {
		stats.Queries++
	}
	w := s.tree.walk(q, false, stats, s)
	s.endQuery()
	return w.best, w.best.Index >= 0
}

// Radius performs one radius query, updating leader state.
func (s *ApproxSession) Radius(q geom.Vec3, r float64, stats *Stats) []kdtree.Neighbor {
	return s.RadiusInto(q, r, nil, stats)
}

// RadiusInto is Radius appending into buf (reset to length 0); see
// Tree.RadiusInto for the slab-recycling contract. Leader result sets
// are the session's own copies, so the returned slice aliases nothing
// the session keeps.
func (s *ApproxSession) RadiusInto(q geom.Vec3, r float64, buf []kdtree.Neighbor, stats *Stats) []kdtree.Neighbor {
	res := s.RadiusUnsorted(q, r, buf, stats)
	kdtree.SortNeighbors(res)
	return res
}

// RadiusUnsorted is RadiusInto without the final sort: the neighbors come
// in the order the walk found them, which is the order the accelerator
// writes its Result Buffer in. The accelerator model asks for this: on
// dense frames the sort costs as much as the search, and nothing the model
// times reads the order.
func (s *ApproxSession) RadiusUnsorted(q geom.Vec3, r float64, buf []kdtree.Neighbor, stats *Stats) []kdtree.Neighbor {
	if stats != nil {
		stats.Queries++
	}
	if r < 0 {
		// An empty ball, as Tree.RadiusInto has it: a walk of one empty visit.
		s.endQuery()
		return nil
	}
	if r != s.radR {
		s.resetRadius(r)
	}
	res := buf[:0]
	s.tree.radius(s.tree.root, q, r*r, &res, stats, s)
	s.endQuery()
	return res
}

// Visit is one step of a query's walk as the accelerator executes it
// (§5): a burst of top-tree nodes on a Recursion Unit, ending in at most
// one leaf visit on a Search Unit. A query's walk is a sequence of visits
// of which the last, and only the last, has Leaf < 0: the top-tree
// traversal drained without reaching another leaf.
type Visit struct {
	TopNodes     int32 // top-tree nodes whose distance was computed in the burst
	Pruned       int32 // far children the bound test discarded in the burst
	Leaf         int32 // leaf set visited after the burst; -1 ends the query
	LeaderChecks int32 // leader-distance computations before the scan
	Scanned      int32 // points scanned: the leaf set, or a follower's leader's results
	ResultWrites int32 // result updates in the burst and the scan
	Follower     bool  // the scan read a leader's results, not the leaf set
}

// VisitLog holds the walks of the queries a session answered while the
// log was attached (LogVisits), in the order they were asked. Summed over
// a batch, its counters are the Stats of that batch.
type VisitLog struct {
	visits []Visit
	ends   []int // query i's visits end before visits[ends[i]]
}

// Queries returns the number of walks in the log.
func (l *VisitLog) Queries() int { return len(l.ends) }

// Query returns the i-th walk, one Visit per step.
func (l *VisitLog) Query(i int) []Visit {
	lo := 0
	if i > 0 {
		lo = l.ends[i-1]
	}
	return l.visits[lo:l.ends[i]]
}

// LogVisits makes the session append the walk of every query it answers
// from now on to log (nil stops it). Logging changes no answer and no
// Stats.
func (s *ApproxSession) LogVisits(log *VisitLog) { s.log = log }

// closeVisit ends the open visit at the leaf it has just scanned: its leaf
// counters go to stats, the visit to the log, and the next burst opens.
func (s *ApproxSession) closeVisit(stats *Stats) {
	if stats != nil {
		stats.LeaderChecks += int64(s.open.LeaderChecks)
		stats.LeafPointsViewed += int64(s.open.Scanned)
		if s.open.Follower {
			stats.FollowerHits++
		}
	}
	if s.log != nil {
		s.log.visits = append(s.log.visits, s.open)
	}
	s.open = Visit{Leaf: -1}
}

// endQuery closes the walk: the burst still open is its last visit.
func (s *ApproxSession) endQuery() {
	if s.log != nil {
		s.log.visits = append(s.log.visits, s.open)
		s.log.ends = append(s.log.ends, len(s.log.visits))
	}
	s.open = Visit{Leaf: -1}
}
