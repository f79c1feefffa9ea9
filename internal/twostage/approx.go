package twostage

import (
	"math"

	"tigris/internal/geom"
	"tigris/internal/kdtree"
)

// ApproxOptions configures the leader/follower approximate search
// (Algorithm 1 of the paper).
type ApproxOptions struct {
	// Threshold is the discriminator thd: a query whose distance to its
	// closest leader exceeds it becomes a leader itself. Zero or negative
	// disables approximation (every query takes the precise path).
	//
	// The paper's empirical settings (§6.3): 1.2 m for NN search, and 40%
	// of the search radius for radius search.
	Threshold float64
	// RadiusThresholdFrac, when positive, overrides Threshold for radius
	// searches with frac × r (the paper's 40%-of-radius rule). Zero keeps
	// the absolute Threshold for both search kinds.
	RadiusThresholdFrac float64
	// MaxLeaders caps the per-leaf leader group. The accelerator's Leader
	// Buffer holds 16 entries (§5.3); capping "improves accuracy because
	// more queries will be searched exactly". Zero selects 16.
	MaxLeaders int
}

func (o *ApproxOptions) defaults() {
	if o.MaxLeaders == 0 {
		o.MaxLeaders = 16
	}
}

// DefaultNNThreshold is the paper's empirically chosen NN discriminator.
const DefaultNNThreshold = 1.2

// DefaultRadiusThresholdFrac is the paper's radius-search discriminator as
// a fraction of the search radius.
const DefaultRadiusThresholdFrac = 0.4

// leader is one Leader Buffer entry: a query that took the precise path in
// a leaf and the leaf-local result it cached there — the nearest point for
// NN search, the in-radius list for radius search.
type leader[R any] struct {
	q   geom.Vec3
	res R
}

// follow is the discriminator of Algorithm 1 (getMinDist): it returns which
// of the leaf's leaders q follows, or -1 when q takes the precise path
// (threshold disabled, no leader yet, or the closest one thd or farther
// away), and charges the leader checks to v.
func follow[R any](leaders []leader[R], q geom.Vec3, thd float64, v *Visit) int {
	if thd <= 0 || len(leaders) == 0 {
		return -1
	}
	v.LeaderChecks = int32(len(leaders))
	closest, closestD2 := -1, math.MaxFloat64
	for i := range leaders {
		if d2 := q.Dist2(leaders[i].q); d2 < closestD2 {
			closest, closestD2 = i, d2
		}
	}
	if math.Sqrt(closestD2) >= thd {
		return -1
	}
	v.Follower = true
	return closest
}

// nearestLeaf is the NN walk's leaf visit under a session: Algorithm 1 when
// the threshold is positive, the plain exhaustive scan otherwise, recorded
// either way.
func (s *ApproxSession) nearestLeaf(id int, q geom.Vec3, best *kdtree.Neighbor, stats *Stats) {
	t := s.tree
	l := t.leaves[id]
	v := &s.open
	v.Leaf = int32(id)
	thd := s.opts.Threshold
	if li := follow(s.nn[id], q, thd, v); li >= 0 {
		// Approximate path: the leader's result is the only candidate.
		if res := s.nn[id][li].res; res.Index >= 0 {
			v.Scanned = 1
			if d2 := t.dist2(q, int32(res.Index)); d2 < best.Dist2 {
				*best = kdtree.Neighbor{Index: res.Index, Dist2: d2}
				v.ResultWrites++
			}
		}
	} else {
		// Precise path: exhaustive scan of the leaf set.
		v.Scanned = l.hi - l.lo
		at, d2, writes, lowAt, low := t.scanNearest(l, q, best.Dist2)
		v.ResultWrites += writes
		if at >= 0 {
			*best = kdtree.Neighbor{Index: int(t.perm[at]), Dist2: d2}
		}
		if thd > 0 && len(s.nn[id]) < s.opts.MaxLeaders {
			// A leader caches the leaf-local best, which the same scan
			// found whether or not the leaf improved the query's own.
			local := kdtree.Neighbor{Index: -1, Dist2: low}
			if lowAt >= 0 {
				local.Index = int(t.perm[lowAt])
			}
			s.nn[id] = append(s.nn[id], leader[kdtree.Neighbor]{q: q, res: local})
			if stats != nil {
				stats.LeaderInserts++
			}
		}
	}
	s.closeVisit(stats)
}

// radiusLeaf is the radius walk's leaf visit under a session; see
// nearestLeaf. A follower re-filters its leader's result list with its own
// center.
func (s *ApproxSession) radiusLeaf(id int, q geom.Vec3, r2 float64, res *[]kdtree.Neighbor, stats *Stats) {
	t := s.tree
	l := t.leaves[id]
	v := &s.open
	v.Leaf = int32(id)
	before := len(*res)
	if li := follow(s.rad[id], q, s.radThd, v); li >= 0 {
		cached := s.rad[id][li].res
		v.Scanned = int32(len(cached))
		for _, nb := range cached {
			if d2 := t.dist2(q, int32(nb.Index)); d2 <= r2 {
				*res = append(*res, kdtree.Neighbor{Index: nb.Index, Dist2: d2})
			}
		}
	} else {
		v.Scanned = l.hi - l.lo
		*res = t.scanRadius(l, q, r2, *res)
		if s.radThd > 0 && len(s.rad[id]) < s.opts.MaxLeaders {
			// The leader keeps its own copy: res belongs to the caller.
			local := append([]kdtree.Neighbor(nil), (*res)[before:]...)
			s.rad[id] = append(s.rad[id], leader[[]kdtree.Neighbor]{q: q, res: local})
			if stats != nil {
				stats.LeaderInserts++
			}
		}
	}
	v.ResultWrites += int32(len(*res) - before)
	s.closeVisit(stats)
}
